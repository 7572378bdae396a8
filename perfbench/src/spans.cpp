#include "spans.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {
thread_local ThreadTrace* g_current = nullptr;
}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kAccessHit: return "access.hit";
    case Layer::kAccessMiss: return "access.miss";
    case Layer::kScipOnMiss: return "core.scip.on_miss";
    case Layer::kScipOnEvict: return "core.scip.on_evict";
    case Layer::kScipOnRequest: return "core.scip.on_request";
    case Layer::kScipChooseMiss: return "core.scip.choose_miss";
    case Layer::kScipChooseHit: return "core.scip.choose_hit";
    case Layer::kNodeAccess: return "tdc.node.access";
    case Layer::kNodeProbe: return "tdc.node.probe";
    case Layer::kCount: break;
  }
  return "?";
}

ThreadTrace* ThreadTrace::current() noexcept { return g_current; }

ThreadTrace::Scope::Scope(ThreadTrace& t) : prev_(g_current) {
  g_current = &t;
}

ThreadTrace::Scope::~Scope() { g_current = prev_; }

void ThreadTrace::close(Layer layer, std::uint64_t start, std::uint64_t end,
                        std::uint32_t parent, bool positive) {
  LayerTotal& t = totals_[static_cast<std::size_t>(layer)];
  t.ns += end - start;
  ++t.calls;
  t.positive += positive ? 1 : 0;
  if (keep_) {
    spans_.push_back({request_, open_, parent, layer, start, end});
    open_ = parent;
  }
}

void accumulate(LayerTotals& into, const LayerTotals& from) {
  for (std::size_t i = 0; i < into.size(); ++i) {
    into[i].ns += from[i].ns;
    into[i].calls += from[i].calls;
    into[i].positive += from[i].positive;
  }
}

void write_spans(const std::string& path, int thread,
                 const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (!f) throw std::runtime_error("cannot open span file " + path);
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"thread\":%d,\"request\":%llu,\"span\":%u,\"parent\":%u,"
                 "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 thread, static_cast<unsigned long long>(s.request), s.id,
                 s.parent, layer_name(s.layer),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot write span file " + path);
  }
}

}  // namespace perfbench
