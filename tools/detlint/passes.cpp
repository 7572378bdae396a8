#include "passes.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>

namespace cdn::detlint {
namespace {

/// Splits a member-access chain "a.b->c" / "a[i]->b" into its identifier
/// components, dropping index suffixes and this->.
std::vector<std::string> chain_components(const std::string& expr) {
  std::vector<std::string> out;
  std::string cur;
  int bracket = 0;
  for (std::size_t i = 0; i < expr.size(); ++i) {
    const char c = expr[i];
    if (c == '[') ++bracket;
    if (c == ']') {
      bracket = std::max(0, bracket - 1);
      continue;
    }
    if (bracket > 0) continue;
    if (is_ident_char(c)) {
      cur.push_back(c);
      continue;
    }
    if (!cur.empty()) {
      out.push_back(cur);
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(cur);
  out.erase(std::remove(out.begin(), out.end(), std::string("this")),
            out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Context: merged lookups shared by the passes.
// ---------------------------------------------------------------------------

struct FnRef {
  std::size_t file = 0;
  std::size_t fn = 0;
};

struct Context {
  const ProjectModel& pm;

  /// "Class::name" and "name" (free) -> definitions.
  std::map<std::string, std::vector<FnRef>> fn_table;
  /// unqualified class name -> merged method decls across all TUs.
  std::map<std::string, std::vector<const MethodDecl*>> decls_by_class;
  /// Functions whose merged decl/definition carries CDN_HOT.
  std::set<const Function*> hot_functions;
  /// Per class: member base names that receive a .reserve() call in any of
  /// the class's methods (any TU).
  std::map<std::string, std::set<std::string>> reserved_by_class;

  explicit Context(const ProjectModel& pm_in) : pm(pm_in) {
    for (std::size_t fi = 0; fi < pm.files.size(); ++fi) {
      const FileModel& fm = pm.files[fi];
      for (const auto& cls : fm.classes) {
        auto& decls = decls_by_class[cls.name];
        for (const MethodDecl& d : cls.method_decls) decls.push_back(&d);
      }
      for (std::size_t ni = 0; ni < fm.functions.size(); ++ni) {
        const Function& fn = fm.functions[ni];
        const std::string key =
            fn.qual_class.empty() ? fn.name : fn.qual_class + "::" + fn.name;
        fn_table[key].push_back(FnRef{fi, ni});
      }
    }
    for (std::size_t fi = 0; fi < pm.files.size(); ++fi) {
      for (const Function& fn : pm.files[fi].functions) {
        if (is_hot(fn)) hot_functions.insert(&fn);
        if (fn.qual_class.empty()) continue;
        for (const CallSite& c : fn.calls) {
          if (c.name != "reserve" || c.receiver.empty()) continue;
          const auto comps = chain_components(c.receiver);
          if (!comps.empty()) {
            reserved_by_class[fn.qual_class].insert(comps.back());
          }
        }
      }
    }
  }

  [[nodiscard]] bool is_hot(const Function& fn) const {
    if (fn.hot) return true;
    if (fn.qual_class.empty()) return false;
    const auto it = decls_by_class.find(fn.qual_class);
    if (it == decls_by_class.end()) return false;
    for (const MethodDecl* d : it->second) {
      if (d->name == fn.name && d->hot) return true;
    }
    return false;
  }

  /// CDN_REQUIRES merged across TUs: a declaration in the header carries
  /// the attribute for the out-of-line definition.
  [[nodiscard]] std::vector<std::string> merged_entry_locks(
      const Function& fn) const {
    std::vector<std::string> locks = fn.entry_locks;
    if (!fn.qual_class.empty()) {
      const auto it = decls_by_class.find(fn.qual_class);
      if (it != decls_by_class.end()) {
        for (const MethodDecl* d : it->second) {
          if (d->name != fn.name) continue;
          for (const std::string& l : d->entry_locks) {
            if (std::find(locks.begin(), locks.end(), l) == locks.end()) {
              locks.push_back(l);
            }
          }
        }
      }
    }
    return locks;
  }

  [[nodiscard]] bool is_virtual_method(const std::string& cls,
                                       const std::string& name) const {
    const auto it = decls_by_class.find(cls);
    if (it == decls_by_class.end()) return false;
    for (const MethodDecl* d : it->second) {
      if (d->name == name && d->is_virtual) return true;
    }
    return false;
  }

  [[nodiscard]] const Member* find_member(const std::string& cls,
                                          const std::string& name) const {
    const auto range = pm.classes.equal_range(cls);
    for (auto it = range.first; it != range.second; ++it) {
      const Class& c = pm.files[it->second.first].classes[it->second.second];
      for (const Member& m : c.members) {
        if (m.name == name) return &m;
      }
    }
    return nullptr;
  }

  /// Resolves a receiver chain ("s.cache", "shard->mu") to the class of
  /// its final component's *owner* plus the final member, or to the class
  /// the whole chain denotes. Returns "" on any unresolved hop.
  [[nodiscard]] std::string resolve_chain_class(const Function& fn,
                                                const std::string& expr) const {
    const auto comps = chain_components(expr);
    if (comps.empty()) return "";
    std::string cls;
    const auto local = fn.locals.find(comps[0]);
    if (local != fn.locals.end()) {
      cls = pm.resolve_class(local->second);
    } else if (!fn.qual_class.empty() &&
               find_member(fn.qual_class, comps[0]) != nullptr) {
      cls = pm.resolve_class(find_member(fn.qual_class, comps[0])->type);
    } else {
      // Maybe the first component itself names a known class (statics).
      if (pm.find_class(comps[0]) != nullptr && comps.size() > 1) {
        cls = comps[0];
      }
    }
    for (std::size_t i = 1; i < comps.size() && !cls.empty(); ++i) {
      const Member* m = find_member(cls, comps[i]);
      cls = m != nullptr ? pm.resolve_class(m->type) : "";
    }
    return cls;
  }

  /// Canonical mutex identity for a lock expression in `fn`'s context:
  /// "OwnerQual::member". Falls back to a project-wide unique mutex-member
  /// lookup, then to a conservative "?::member" id so unresolved mutexes
  /// still participate in (and can only merge, never split) cycles.
  [[nodiscard]] std::string canon_mutex(const Function& fn,
                                        const std::string& expr) const {
    const auto comps = chain_components(expr);
    if (comps.empty()) return "?::" + trim(expr);
    const std::string& leaf = comps.back();
    if (comps.size() == 1) {
      if (!fn.qual_class.empty()) {
        const auto range = pm.classes.equal_range(fn.qual_class);
        for (auto it = range.first; it != range.second; ++it) {
          const Class& c =
              pm.files[it->second.first].classes[it->second.second];
          for (const Member& m : c.members) {
            if (m.name == leaf) return c.qual + "::" + leaf;
          }
        }
      }
    } else {
      // Owner = class of the second-to-last component.
      std::string owner_expr;
      for (std::size_t i = 0; i + 1 < comps.size(); ++i) {
        if (!owner_expr.empty()) owner_expr += ".";
        owner_expr += comps[i];
      }
      const std::string owner = resolve_chain_class(fn, owner_expr);
      if (!owner.empty()) {
        const auto range = pm.classes.equal_range(owner);
        for (auto it = range.first; it != range.second; ++it) {
          const Class& c =
              pm.files[it->second.first].classes[it->second.second];
          for (const Member& m : c.members) {
            if (m.name == leaf) return c.qual + "::" + leaf;
          }
        }
        return owner + "::" + leaf;
      }
    }
    const auto owners = pm.mutex_members.find(leaf);
    if (owners != pm.mutex_members.end() && owners->second.size() == 1) {
      return *owners->second.begin() + "::" + leaf;
    }
    return "?::" + leaf;
  }

  /// Resolves a call site to candidate function definitions. Virtual
  /// methods are an analysis boundary: resolved-virtual calls return {}.
  [[nodiscard]] std::vector<FnRef> resolve_call(const Function& fn,
                                                const CallSite& call) const {
    auto lookup = [&](const std::string& key) {
      const auto it = fn_table.find(key);
      return it != fn_table.end() ? it->second : std::vector<FnRef>{};
    };
    if (!call.qualifier.empty()) {
      return lookup(call.qualifier + "::" + call.name);
    }
    if (!call.receiver.empty()) {
      const std::string cls = resolve_chain_class(fn, call.receiver);
      if (cls.empty()) return {};
      if (is_virtual_method(cls, call.name)) return {};
      return lookup(cls + "::" + call.name);
    }
    if (!fn.qual_class.empty()) {
      if (is_virtual_method(fn.qual_class, call.name)) return {};
      auto refs = lookup(fn.qual_class + "::" + call.name);
      if (!refs.empty()) return refs;
    }
    auto free_refs = lookup(call.name);
    // Only follow unambiguous free functions.
    if (free_refs.size() == 1) return free_refs;
    return {};
  }
};

// ---------------------------------------------------------------------------
// Hot-span bookkeeping for the purity pass.
// ---------------------------------------------------------------------------

/// Per-file predicate: is this 1-based line inside a hot function body or a
/// hot-begin/end comment region?
struct HotLines {
  std::vector<std::vector<std::pair<int, int>>> spans;  // per file index

  explicit HotLines(const Context& ctx) {
    spans.resize(ctx.pm.files.size());
    for (std::size_t fi = 0; fi < ctx.pm.files.size(); ++fi) {
      const FileModel& fm = ctx.pm.files[fi];
      for (const Function& fn : fm.functions) {
        if (ctx.hot_functions.count(&fn) != 0) {
          spans[fi].emplace_back(fn.head_line, fn.end_line);
        }
      }
      for (const HotRegion& r : fm.hot_regions) {
        spans[fi].emplace_back(r.begin_line, r.end_line);
      }
    }
  }

  [[nodiscard]] bool hot(std::size_t file, int line) const {
    for (const auto& [b, e] : spans[file]) {
      if (line >= b && line <= e) return true;
    }
    return false;
  }
  [[nodiscard]] bool any(std::size_t file) const {
    return !spans[file].empty();
  }
};

// ---------------------------------------------------------------------------
// Pass (a): lock-order analysis.
// ---------------------------------------------------------------------------

struct Edge {
  std::string from;
  std::string to;
  std::string file;
  int line = 0;
};

struct AcqSite {
  std::string mutex;  // canonical id
  std::string file;
  int line = 0;
};

class LockPass {
 public:
  explicit LockPass(const Context& ctx) : ctx_(ctx) {}

  void run(std::vector<Finding>* out) {
    for (const FileModel& fm : ctx_.pm.files) {
      for (const Function& fn : fm.functions) collect_function(fm, fn);
    }
    emit_cycles(out);
  }

 private:
  const Context& ctx_;
  std::map<std::pair<std::string, std::string>, Edge> edges_;
  std::map<const Function*, std::vector<AcqSite>> closure_;
  std::set<const Function*> in_progress_;

  void add_edge(const std::string& from, const std::string& to,
                const std::string& file, int line) {
    const auto key = std::make_pair(from, to);
    const auto it = edges_.find(key);
    // Keep the lexically smallest witness per edge for determinism.
    if (it == edges_.end() || std::tie(file, line) <
                                  std::tie(it->second.file, it->second.line)) {
      edges_[key] = Edge{from, to, file, line};
    }
  }

  /// All mutexes `fn` may acquire, directly or through resolved calls.
  const std::vector<AcqSite>& acquisition_closure(const FnRef& ref) {
    const FileModel& fm = ctx_.pm.files[ref.file];
    const Function& fn = fm.functions[ref.fn];
    const auto cached = closure_.find(&fn);
    if (cached != closure_.end()) return cached->second;
    if (in_progress_.count(&fn) != 0) {
      static const std::vector<AcqSite> kEmpty;
      return kEmpty;  // recursion guard
    }
    in_progress_.insert(&fn);
    std::vector<AcqSite> acq;
    std::set<std::string> seen;
    for (const LockSite& site : fn.locks) {
      const std::string id = ctx_.canon_mutex(fn, site.expr);
      if (seen.insert(id).second) {
        acq.push_back(AcqSite{id, fm.path, site.line});
      }
    }
    for (const CallSite& call : fn.calls) {
      for (const FnRef& callee : ctx_.resolve_call(fn, call)) {
        for (const AcqSite& a : acquisition_closure(callee)) {
          if (seen.insert(a.mutex).second) {
            // Witness the caller's call site, not the callee's body: the
            // cycle is actionable where the nested acquisition begins.
            acq.push_back(AcqSite{a.mutex, fm.path, call.line});
          }
        }
      }
    }
    in_progress_.erase(&fn);
    return closure_.emplace(&fn, std::move(acq)).first->second;
  }

  void collect_function(const FileModel& fm, const Function& fn) {
    const std::vector<std::string> entry = ctx_.merged_entry_locks(fn);
    std::vector<std::string> extra;  // REQUIRES seen only on the decl
    for (const std::string& l : entry) {
      if (std::find(fn.entry_locks.begin(), fn.entry_locks.end(), l) ==
          fn.entry_locks.end()) {
        extra.push_back(l);
      }
    }
    auto held_ids = [&](const std::vector<std::string>& held) {
      std::set<std::string> ids;
      for (const std::string& h : held) ids.insert(ctx_.canon_mutex(fn, h));
      for (const std::string& h : extra) ids.insert(ctx_.canon_mutex(fn, h));
      return ids;
    };
    for (const LockSite& site : fn.locks) {
      const std::string to = ctx_.canon_mutex(fn, site.expr);
      for (const std::string& from : held_ids(site.held)) {
        add_edge(from, to, fm.path, site.line);
      }
    }
    for (const CallSite& call : fn.calls) {
      const std::set<std::string> held = held_ids(call.held);
      if (held.empty()) continue;
      for (const FnRef& callee : ctx_.resolve_call(fn, call)) {
        for (const AcqSite& a : acquisition_closure(callee)) {
          for (const std::string& from : held) {
            add_edge(from, a.mutex, fm.path, call.line);
          }
        }
      }
    }
  }

  void emit_cycles(std::vector<Finding>* out) {
    // Adjacency over canonical mutex ids.
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto& [key, edge] : edges_) {
      (void)edge;
      adj[key.first].push_back(key.second);
      adj.try_emplace(key.second);
    }
    // Tarjan SCC (iterative enough at this scale to recurse).
    std::map<std::string, int> index, low;
    std::vector<std::string> stack;
    std::set<std::string> on_stack;
    std::vector<std::vector<std::string>> sccs;
    int next = 0;
    std::function<void(const std::string&)> strongconnect =
        [&](const std::string& v) {
          index[v] = low[v] = next++;
          stack.push_back(v);
          on_stack.insert(v);
          for (const std::string& w : adj[v]) {
            if (index.find(w) == index.end()) {
              strongconnect(w);
              low[v] = std::min(low[v], low[w]);
            } else if (on_stack.count(w) != 0) {
              low[v] = std::min(low[v], index[w]);
            }
          }
          if (low[v] == index[v]) {
            std::vector<std::string> scc;
            while (true) {
              const std::string w = stack.back();
              stack.pop_back();
              on_stack.erase(w);
              scc.push_back(w);
              if (w == v) break;
            }
            sccs.push_back(std::move(scc));
          }
        };
    for (const auto& [v, nbrs] : adj) {
      (void)nbrs;
      if (index.find(v) == index.end()) strongconnect(v);
    }

    for (std::vector<std::string>& scc : sccs) {
      std::sort(scc.begin(), scc.end());
      const bool self_loop =
          scc.size() == 1 && edges_.count({scc[0], scc[0]}) != 0;
      if (scc.size() < 2 && !self_loop) continue;
      // Witness edges inside the SCC, lexically smallest first.
      const std::set<std::string> members(scc.begin(), scc.end());
      std::vector<const Edge*> witnesses;
      for (const auto& [key, edge] : edges_) {
        if (members.count(key.first) != 0 && members.count(key.second) != 0) {
          witnesses.push_back(&edge);
        }
      }
      std::sort(witnesses.begin(), witnesses.end(),
                [](const Edge* a, const Edge* b) {
                  return std::tie(a->file, a->line, a->from, a->to) <
                         std::tie(b->file, b->line, b->from, b->to);
                });
      std::ostringstream msg;
      if (self_loop) {
        msg << "lock-order cycle: '" << scc[0]
            << "' can be re-acquired while already held";
      } else {
        msg << "lock-order cycle among {";
        for (std::size_t i = 0; i < scc.size(); ++i) {
          msg << (i != 0 ? ", " : "") << scc[i];
        }
        msg << "}";
      }
      msg << "; acquisition edges:";
      for (const Edge* e : witnesses) {
        msg << " " << e->from << " -> " << e->to << " at " << e->file << ":"
            << e->line << ";";
      }
      msg << " a consistent acquisition order (or try_lock with backoff) "
             "is required";
      const Edge* anchor = witnesses.front();
      out->push_back(Finding{anchor->file, anchor->line,
                             Rule::kLockOrderCycle, msg.str()});
    }
  }
};

// ---------------------------------------------------------------------------
// Pass (b): hot-path purity.
// ---------------------------------------------------------------------------

class PurityPass {
 public:
  explicit PurityPass(const Context& ctx) : ctx_(ctx), hot_(ctx) {}

  void run(std::vector<Finding>* out) {
    for (std::size_t fi = 0; fi < ctx_.pm.files.size(); ++fi) {
      if (!hot_.any(fi)) continue;
      scan_lines(fi, ctx_.pm.files[fi], out);
    }
  }

 private:
  const Context& ctx_;
  const HotLines hot_;

  /// Container-growth receiver is fine if something with the same base
  /// name is .reserve()d in the enclosing class or function.
  [[nodiscard]] bool is_reserved(const FileModel& fm, int line,
                                 const std::string& receiver) const {
    const auto comps = chain_components(receiver);
    if (comps.empty()) return false;
    const std::string& base = comps.back();
    for (const Function& fn : fm.functions) {
      if (line < fn.head_line || line > fn.end_line) continue;
      for (const CallSite& c : fn.calls) {
        if (c.name != "reserve") continue;
        const auto rc = chain_components(c.receiver);
        if (!rc.empty() && rc.back() == base) return true;
      }
      if (!fn.qual_class.empty()) {
        const auto it = ctx_.reserved_by_class.find(fn.qual_class);
        if (it != ctx_.reserved_by_class.end() &&
            it->second.count(base) != 0) {
          return true;
        }
      }
    }
    return false;
  }

  void scan_lines(std::size_t fi, const FileModel& fm,
                  std::vector<Finding>* out) {
    static const std::regex kIo(
        R"(\b(cout|cerr|clog|printf|fprintf|fputs|puts|fopen|fwrite|fread|fscanf|ifstream|ofstream|fstream|getline)\b)");
    static const std::regex kAllocSimple(
        R"(\bnew\b|\bmake_unique\b|\bmake_shared\b|\bstd\s*::\s*to_string\s*\(|\bstd\s*::\s*string\s*\()");
    static const std::regex kGrow(
        R"(\.\s*(push_back|emplace_back|push_front|emplace_front|resize|assign|append)\s*\()");
    for (std::size_t li = 0; li < fm.view.code.size(); ++li) {
      const int line = static_cast<int>(li) + 1;
      if (!hot_.hot(fi, line)) continue;
      const std::string& code = fm.view.code[li];
      std::smatch m;
      if (contains_word(code, "throw")) {
        out->push_back(Finding{
            fm.path, line, Rule::kThrowInHot,
            "'throw' inside a hot region; hot paths must be exception-free "
            "(return an error code or move validation outside the loop)"});
      }
      if (std::regex_search(code, m, kIo)) {
        out->push_back(Finding{
            fm.path, line, Rule::kIoInHot,
            "IO call '" + m.str() +
                "' inside a hot region; buffer results and emit them "
                "outside the loop"});
      }
      if (std::regex_search(code, m, kAllocSimple)) {
        out->push_back(Finding{
            fm.path, line, Rule::kAllocInHot,
            "allocation '" + trim(m.str()) +
                "' inside a hot region; pre-allocate outside the loop "
                "(slab/free-list) so the replay path stays malloc-free"});
      }
      for (auto it = std::sregex_iterator(code.begin(), code.end(), kGrow);
           it != std::sregex_iterator(); ++it) {
        const std::string receiver = receiver_chain_before(
            code, static_cast<std::size_t>(it->position()));
        if (receiver.empty()) continue;
        if (is_reserved(fm, line, receiver)) continue;
        out->push_back(Finding{
            fm.path, line, Rule::kAllocInHot,
            "container growth '" + receiver + "." + (*it)[1].str() +
                "(...)' inside a hot region on a receiver that is never "
                ".reserve()d; reserve capacity up front or use the slab"});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Pass (c): accounting contracts.
// ---------------------------------------------------------------------------

class AccountingPass {
 public:
  explicit AccountingPass(const Context& ctx) : ctx_(ctx) {}

  void run(std::vector<Finding>* out) {
    for (std::size_t fi = 0; fi < ctx_.pm.files.size(); ++fi) {
      const FileModel& fm = ctx_.pm.files[fi];
      for (const Class& cls : fm.classes) {
        check_class(fm, cls, out);
      }
    }
  }

 private:
  const Context& ctx_;

  /// Finds the metadata_bytes() definition for `cls`: inline (inside the
  /// class's line range in the same file) or out-of-line in any TU.
  const Function* find_definition(const FileModel& fm, const Class& cls,
                                  const FileModel** def_fm) const {
    for (const Function& fn : fm.functions) {
      if (fn.name == "metadata_bytes" && fn.qual_class == cls.name &&
          fn.head_line >= cls.begin_line && fn.end_line <= cls.end_line) {
        *def_fm = &fm;
        return &fn;
      }
    }
    const auto it = ctx_.fn_table.find(cls.name + "::metadata_bytes");
    if (it == ctx_.fn_table.end()) return nullptr;
    for (const FnRef& ref : it->second) {
      const FileModel& other = ctx_.pm.files[ref.file];
      const Function& fn = other.functions[ref.fn];
      // Skip inline definitions of same-named classes in other files.
      bool inside_foreign_class = false;
      for (const Class& oc : other.classes) {
        if (&oc != &cls && oc.name == cls.name &&
            fn.head_line >= oc.begin_line && fn.end_line <= oc.end_line) {
          inside_foreign_class = (&other != &fm);
        }
      }
      if (inside_foreign_class) continue;
      *def_fm = &other;
      return &fn;
    }
    return nullptr;
  }

  void check_class(const FileModel& fm, const Class& cls,
                   std::vector<Finding>* out) {
    bool declares = false;
    for (const MethodDecl& d : cls.method_decls) {
      if (d.name == "metadata_bytes") declares = true;
    }
    if (!declares) return;

    std::vector<const Member*> accountable;
    for (const Member& m : cls.members) {
      if (is_container_type(m.type)) {
        accountable.push_back(&m);
        continue;
      }
      const std::string mc = ctx_.pm.resolve_class(m.type);
      if (!mc.empty() && ctx_.pm.accounting_classes.count(mc) != 0) {
        accountable.push_back(&m);
      }
    }
    if (accountable.empty()) return;

    const FileModel* def_fm = nullptr;
    const Function* def = find_definition(fm, cls, &def_fm);
    if (def == nullptr) return;  // pure virtual / defaulted elsewhere

    std::string body;
    for (int li = def->head_line; li <= def->end_line; ++li) {
      const std::size_t idx = static_cast<std::size_t>(li - 1);
      if (idx < def_fm->view.code.size()) {
        body += def_fm->view.code[idx];
        body.push_back('\n');
      }
    }
    std::vector<std::string> missing;
    for (const Member* m : accountable) {
      if (!contains_word(body, m->name)) missing.push_back(m->name);
    }
    if (missing.empty()) return;
    std::ostringstream msg;
    msg << cls.name << "::metadata_bytes() does not reference member";
    msg << (missing.size() > 1 ? "s " : " ");
    for (std::size_t i = 0; i < missing.size(); ++i) {
      msg << (i != 0 ? ", " : "") << "'" << missing[i] << "'";
    }
    msg << "; charge its bytes in the sum or carry "
           "// detlint:allow(accounting, <why it is already counted>)";
    out->push_back(Finding{def_fm->path, def->head_line, Rule::kAccounting,
                           msg.str()});
  }
};

}  // namespace

std::vector<Finding> run_project_passes(const ProjectModel& pm) {
  Context ctx(pm);
  std::vector<Finding> findings;
  LockPass(ctx).run(&findings);
  PurityPass(ctx).run(&findings);
  AccountingPass(ctx).run(&findings);

  // Apply per-line suppressions, then dedupe (a line inside two
  // overlapping hot spans must report once).
  std::map<std::string, std::size_t> file_index;
  for (std::size_t fi = 0; fi < pm.files.size(); ++fi) {
    file_index[pm.files[fi].path] = fi;
  }
  std::set<std::string> seen;
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    const auto it = file_index.find(f.file);
    if (it != file_index.end()) {
      const auto& allowed = pm.files[it->second].allowed;
      const std::size_t idx = static_cast<std::size_t>(f.line - 1);
      if (idx < allowed.size() && allowed[idx].count(f.rule) != 0) {
        continue;
      }
    }
    const std::string key =
        f.file + ":" + std::to_string(f.line) + ":" + rule_id(f.rule);
    if (!seen.insert(key).second) continue;
    kept.push_back(std::move(f));
  }
  return kept;
}

}  // namespace cdn::detlint
