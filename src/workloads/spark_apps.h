#pragma once

#include "spark/stage.h"

#include <cstddef>

/// \file spark_apps.h
/// Spark DAG cost specs of the paper's Spark workloads: the HiBench
/// benchmarks of Figs. 9-10 (Bayes, Random Forest, SVM, NWeight) and the
/// Collaborative Filtering case study of Table I and Fig. 8 (data from
/// Orchestra [12]). Each spec sets, by hand, the per-task compute, cached,
/// shuffle and broadcast bytes the simulated SparkEngine charges; every
/// builder is a pure function of its arguments, so sweeps may call it from
/// worker threads.

namespace ipso::wl {

/// Bayes Classifier: HiBench's two-stage job (featurize/count over cached
/// partitions, then aggregate the model).
spark::SparkAppSpec bayes_app();

/// Support Vector Machine: iterative, like MLlib's SVMWithSGD. Each epoch
/// broadcasts the weight vector and maps a gradient pass over the cached
/// training partitions.
spark::SparkAppSpec svm_app();

/// Random Forest: tree construction over bootstrap partitions, then forest
/// aggregation.
spark::SparkAppSpec random_forest_app();

/// Collaborative Filtering: "in each iteration, there are two feature
/// vectors to be updated alternately, involving two rounds of broadcast and
/// two Map phases with barrier synchronization", no reduce phase (Ws = 0,
/// eta = 1). Each broadcast is driver-serialized, so its cost grows
/// linearly with n — Wo ∝ n, q(n) ∝ n², the type-IVs pathology. Calibrated
/// against the paper's Table I: total parallel compute ~2000 s split across
/// `total_tasks` tasks, ~9 s of per-stage floor, and per-iteration
/// broadcasts whose driver-side serialization makes Wo(n) ~ 0.6·n s
/// (gamma = 2, peak near n = 60). Throws std::invalid_argument for 0 tasks.
spark::SparkAppSpec collab_filter_app(std::size_t total_tasks);

/// NWeight: HiBench's n-hop neighbor weights by iterative sparse
/// vector-matrix products — one propagation stage per hop, heavy shuffle
/// (edge messages dominate). Throws std::invalid_argument for 0 hops.
spark::SparkAppSpec nweight_app(std::size_t hops = 3);

}  // namespace ipso::wl
