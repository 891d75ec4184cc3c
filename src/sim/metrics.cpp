#include "sim/metrics.h"

namespace ipso::sim {

namespace {
double quantize(double v, double precision) {
  if (precision <= 0.0) return v;
  return std::round(v / precision) * precision;
}
}  // namespace

PhaseBreakdown PhaseBreakdown::quantized(double precision) const noexcept {
  PhaseBreakdown q;
  q.init = quantize(init, precision);
  q.map = quantize(map, precision);
  q.comm = quantize(comm, precision);
  q.shuffle = quantize(shuffle, precision);
  q.merge = quantize(merge, precision);
  q.reduce = quantize(reduce, precision);
  q.spill = quantize(spill, precision);
  return q;
}

}  // namespace ipso::sim
