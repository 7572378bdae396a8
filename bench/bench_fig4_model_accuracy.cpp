// Figure 4: decision accuracy of LinReg, LogReg, SVM, NN, GBM and MAB when
// classifying ZROs, P-ZROs, and both, per workload.
//
// Methodology (mirrors §2.3): events are labeled by the LRU replay at 5 %
// of WSS; batch models train on the first half of the event stream and are
// evaluated frozen on the second half; the MAB runs *online* over the
// second half (decision first, label feedback afterwards), like SCIP in
// deployment. Batch training is subsampled to 40 K rows; the NN uses 256
// hidden neurons instead of the paper's 1024 (same family, 4x faster on
// the laptop-scale budget; width is not the bottleneck at 6 features).
//
// Expected shape: every model identifies ZROs better than P-ZROs; the joint
// task is the hardest; MAB is the most robust on the joint task.
#include <memory>

#include "analysis/feature_builder.hpp"
#include "analysis/mab_classifier.hpp"
#include "analysis/residency.hpp"
#include "bench_harness.hpp"
#include "ml/gbm.hpp"
#include "ml/linear.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "ml/svm.hpp"

namespace cdn::bench {
namespace {

using analysis::LabelTask;

ml::Dataset subsample(const ml::Dataset& ds, std::size_t max_rows,
                      Rng& rng) {
  if (ds.rows() <= max_rows) return ds;
  ml::Dataset out(ds.features());
  const double keep =
      static_cast<double>(max_rows) / static_cast<double>(ds.rows());
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    if (rng.chance(keep)) {
      out.add_row(std::span<const float>(ds.row(i), ds.features()),
                  ds.label(i));
    }
  }
  return out;
}

}  // namespace
}  // namespace cdn::bench

int main() {
  using namespace cdn;
  using namespace cdn::bench;
  for (const Trace& t : traces()) {
    const std::uint64_t cap = cap_frac(t, 0.05);
    const auto an = analysis::analyze_zro(t, cap);
    Table table({"model", "ZRO acc", "P-ZRO acc", "both acc"});
    std::vector<std::vector<double>> acc(6, std::vector<double>(3));

    for (int task_i = 0; task_i < 3; ++task_i) {
      const auto task = static_cast<LabelTask>(task_i);
      std::vector<std::uint64_t> ids;
      const auto ds = analysis::build_event_dataset(t, an, task, &ids);
      auto [train_full, test] = ds.split(0.5);
      Rng rng(1234 + task_i);
      auto train = subsample(train_full, 40'000, rng);
      train.shuffle(rng);

      std::vector<std::unique_ptr<ml::BinaryClassifier>> models;
      models.push_back(std::make_unique<ml::LinReg>());
      models.push_back(std::make_unique<ml::LogReg>());
      models.push_back(std::make_unique<ml::LinearSvm>());
      models.push_back(std::make_unique<ml::Mlp>(
          ml::MlpParams{.hidden = 256, .epochs = 3}));
      models.push_back(std::make_unique<ml::GbmClassifier>());
      for (std::size_t m = 0; m < models.size(); ++m) {
        Rng fit_rng(99 + m);
        models[m]->fit(train, fit_rng);
        acc[m][static_cast<std::size_t>(task_i)] =
            ml::evaluate(*models[m], test).accuracy;
      }
      // Online MAB over the test half (ids aligned with ds rows).
      std::vector<std::uint64_t> test_ids(
          ids.begin() + static_cast<std::ptrdiff_t>(train_full.rows()),
          ids.end());
      const auto scores = analysis::run_mab_classifier(test, test_ids);
      acc[5][static_cast<std::size_t>(task_i)] =
          ml::report_from_scores(scores, test.labels()).accuracy;
    }
    const char* names[6] = {"LinReg", "LogReg", "SVM", "NN", "GBM", "MAB"};
    for (int m = 0; m < 6; ++m) {
      table.add_row({names[m], Table::pct(acc[static_cast<std::size_t>(m)][0]),
                     Table::pct(acc[static_cast<std::size_t>(m)][1]),
                     Table::pct(acc[static_cast<std::size_t>(m)][2])});
    }
    print_block("Fig. 4 (" + t.name + ")", table);
  }
  return 0;
}
