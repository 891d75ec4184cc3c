#pragma once

#include "mapreduce/workload_spec.h"

#include <cstdint>
#include <cstddef>

/// \file qmc_pi.h
/// QMC Pi (paper Fig. 4(a)): the Apache Hadoop QuasiMonteCarlo example.
/// Each map task evaluates a slice of a low-discrepancy (Halton) sequence
/// and counts points inside the quarter unit circle; the reducer sums two
/// integers per task. There is essentially no serial workload (eta ~ 1) and
/// no in-proportion scaling, which is why this is the one case that matches
/// Gustafson's law (type It).

namespace ipso::wl {

/// Element `index` of the van der Corput sequence in the given base.
double van_der_corput(std::uint64_t index, std::uint32_t base) noexcept;

/// Hit/miss tally of one map task.
struct QmcTally {
  std::uint64_t inside = 0;
  std::uint64_t outside = 0;
};

/// Evaluates `samples` Halton points (bases 2 and 3) starting at `offset`
/// and tallies quarter-circle membership. This is the real Hadoop kernel.
QmcTally qmc_map(std::uint64_t offset, std::uint64_t samples) noexcept;

/// Reducer: combines tallies and estimates pi = 4 * inside / total.
double qmc_estimate(const QmcTally* tallies, std::size_t count) noexcept;

/// Simulation cost model: one "input byte" represents one Halton sample's
/// work footprint; intermediate data is 16 bytes per task; the merge is a
/// constant-time sum.
mr::MrWorkloadSpec qmc_pi_spec();

}  // namespace ipso::wl
