#include "workloads/spark_apps.h"

#include <stdexcept>

namespace ipso::wl {

spark::SparkAppSpec bayes_app() {
  spark::SparkAppSpec app;
  app.name = "Bayes";
  app.iterations = 1;

  // Stage 1: featurize + per-class counting over cached training partitions.
  spark::StageSpec featurize;
  featurize.name = "featurize";
  featurize.task_ops = 2e8;               // ~2 s per task
  featurize.cached_bytes_per_task = 1.5e9;  // spills past N/m ~ 5 on 8 GB
  featurize.shuffle_bytes_per_task = 2e5;  // partial model per task

  // Stage 2: aggregate partial models (few tasks).
  spark::StageSpec aggregate;
  aggregate.name = "aggregateModel";
  aggregate.task_ops = 1e8;
  aggregate.task_count_factor = 0.25;
  aggregate.broadcast_bytes = 5e5;  // model redistribution

  app.stages = {featurize, aggregate};
  app.driver_ops_per_job = 5e7;  // final model assembly at the driver
  return app;
}

spark::SparkAppSpec svm_app() {
  spark::SparkAppSpec app;
  app.name = "SVM";
  app.iterations = 5;  // five SGD epochs

  // Per-epoch gradient pass over cached partitions, weights broadcast first.
  spark::StageSpec gradient;
  gradient.name = "gradientPass";
  gradient.task_ops = 1.5e8;
  gradient.cached_bytes_per_task = 1.5e9;
  gradient.broadcast_bytes = 8e5;          // weight vector to every executor
  gradient.shuffle_bytes_per_task = 1e5;   // partial gradients

  // Driver-side weight update (cheap, few tasks).
  spark::StageSpec update;
  update.name = "updateWeights";
  update.task_ops = 2e7;
  update.task_count_factor = 0.05;

  app.stages = {gradient, update};
  app.driver_ops_per_job = 2e7;
  return app;
}

spark::SparkAppSpec random_forest_app() {
  spark::SparkAppSpec app;
  app.name = "RandomForest";
  app.iterations = 1;

  // Tree construction over bootstrap partitions (heaviest stage).
  spark::StageSpec grow;
  grow.name = "growTrees";
  grow.task_ops = 3e8;
  grow.cached_bytes_per_task = 1.5e9;
  grow.shuffle_bytes_per_task = 3e5;  // serialized trees
  grow.broadcast_bytes = 1e6;         // sampling plan / feature metadata

  // Forest aggregation.
  spark::StageSpec aggregate;
  aggregate.name = "aggregateForest";
  aggregate.task_ops = 5e7;
  aggregate.task_count_factor = 0.1;

  app.stages = {grow, aggregate};
  app.driver_ops_per_job = 3e7;
  return app;
}

spark::SparkAppSpec collab_filter_app(std::size_t total_tasks) {
  if (total_tasks == 0) {
    throw std::invalid_argument("collab_filter_app: need >= 1 task");
  }
  spark::SparkAppSpec app;
  app.name = "CollaborativeFiltering";
  app.iterations = 10;  // 10 alternating iterations = 20 map stages
  app.driver_ops_per_job = 0.0;  // no reduce phase: Ws = 0, eta = 1

  // Total parallel compute across the whole job ~2000 s (paper Table I
  // extrapolates E[Tp,1(1)] ~ 1602.5 s of map work plus per-stage floors),
  // split evenly over 20 stages x N tasks.
  const double ops_per_stage = 1e10;  // 100 s of work per stage
  const double task_ops = ops_per_stage / static_cast<double>(total_tasks);

  // Each broadcast copy is ~1.7 MB of feature vectors: at the 56.25 MB/s
  // driver uplink one copy costs 0.03 s, so 20 broadcasts cost 0.6·n s of
  // driver serialization — the paper's measured Wo(n) (Table I).
  const double broadcast_bytes = 1.6875e6;

  spark::StageSpec update_users;
  update_users.name = "updateUserFactors";
  update_users.task_ops = task_ops;
  update_users.broadcast_bytes = broadcast_bytes;

  spark::StageSpec update_items = update_users;
  update_items.name = "updateItemFactors";

  app.stages = {update_users, update_items};
  return app;
}

spark::SparkAppSpec nweight_app(std::size_t hops) {
  if (hops == 0) throw std::invalid_argument("nweight_app: hops must be >= 1");
  spark::SparkAppSpec app;
  app.name = "NWeight";
  app.iterations = hops;  // one propagation super-step per hop

  spark::StageSpec propagate;
  propagate.name = "propagate";
  propagate.task_ops = 2.5e8;
  propagate.cached_bytes_per_task = 1.5e9;   // cached adjacency partitions
  propagate.shuffle_bytes_per_task = 5e5;    // edge messages dominate
  propagate.broadcast_bytes = 2e5;           // frontier metadata

  app.stages = {propagate};
  app.driver_ops_per_job = 2e7;
  return app;
}

}  // namespace ipso::wl
