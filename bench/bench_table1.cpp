// Reproduces Table I: "Performance results for different regression models
// (cross validation = 10, training size = 50%)" — MAE, MAX, RMSE, EV, R² for
// Linear Least Squares, k-NN (k=3, Manhattan, distance weights) and SVR with
// RBF kernel (C=3.5, gamma=0.055, epsilon=0.025), against the flat SFI
// campaign ground truth. Paper values are printed alongside for comparison.

#include <cstdio>

#include "bench/bench_common.hpp"
#include "ml/model_zoo.hpp"
#include "util/stopwatch.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace ffr;
  const bench::PaperContext& ctx = bench::paper_context();
  const auto splits = bench::paper_splits(ctx);

  std::printf("== Table I: model performance (CV = 10, training size = 50%%) ==\n");
  util::TablePrinter table(
      {"Model", "MAE", "MAX", "RMSE", "EV", "R2", "fit+predict[s]"});

  const std::pair<const char*, const char*> models[] = {
      {"Linear Least Squares", "linear"},
      {"k-NN (k=3, manhattan)", "knn_paper"},
      {"SVR w/ RBF kernel", "svr_paper"},
  };
  for (const auto& [label, zoo_name] : models) {
    const auto model = ml::make_model(zoo_name);
    util::Stopwatch stopwatch;
    const ml::CrossValidationResult cv =
        ml::cross_validate(*model, ctx.features.values, ctx.fdr, splits, 0.5);
    const auto& m = cv.mean_test;
    table.add_row({label, util::TablePrinter::format(m.mae, 3),
                   util::TablePrinter::format(m.max, 3),
                   util::TablePrinter::format(m.rmse, 3),
                   util::TablePrinter::format(m.ev, 3),
                   util::TablePrinter::format(m.r2, 3),
                   util::TablePrinter::format(stopwatch.elapsed_seconds(), 2)});
  }
  table.print();

  std::printf("\n== Paper's Table I (DSN'19, OpenCores 10GE MAC, 1054 FFs) ==\n");
  util::TablePrinter paper({"Model", "MAE", "MAX", "RMSE", "EV", "R2"});
  for (const auto& row : bench::kPaperTable1) {
    paper.add_row_numeric(row.model, {row.mae, row.max, row.rmse, row.ev, row.r2});
  }
  paper.print();

  std::printf(
      "\nShape check: the linear model must rank last and the two kernel/\n"
      "distance models must land close together with high R2 — see\n"
      "the README \"Results\" section for the paper-vs-measured discussion.\n");
  return 0;
}
