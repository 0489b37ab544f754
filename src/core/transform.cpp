#include "core/transform.hpp"

#include "util/error.hpp"

namespace fit::core {

std::string to_string(Schedule s) {
  switch (s) {
    case Schedule::Reference: return "reference";
    case Schedule::Unfused: return "unfused";
    case Schedule::Fused12_34: return "fused12/34";
    case Schedule::Recompute: return "recompute";
    case Schedule::Fused1234: return "fused1234";
    case Schedule::ParUnfused: return "par-unfused";
    case Schedule::ParFused: return "par-fused";
    case Schedule::ParFusedInner: return "par-fused-inner";
    case Schedule::Hybrid: return "hybrid";
    case Schedule::Resilient: return "resilient";
  }
  return "?";
}

TransformOutcome four_index_transform(const Problem& p,
                                      const TransformOptions& opt,
                                      runtime::Cluster* cluster) {
  TransformOutcome out;
  switch (opt.schedule) {
    case Schedule::Reference:
      out.c = reference_transform(p);
      return out;
    case Schedule::Unfused:
      out.c = unfused_transform(p, &out.seq);
      return out;
    case Schedule::Fused12_34:
      out.c = fused12_34_transform(p, &out.seq);
      return out;
    case Schedule::Recompute:
      out.c = recompute_transform(p, &out.seq);
      return out;
    case Schedule::Fused1234:
      out.c = fused1234_transform(p, &out.seq);
      return out;
    default:
      break;
  }
  FIT_REQUIRE(cluster != nullptr,
              "distributed schedule " << to_string(opt.schedule)
                                      << " requires a cluster");
  out.distributed = true;
  ParResult r;
  switch (opt.schedule) {
    case Schedule::ParUnfused:
      r = unfused_par_transform(p, *cluster, opt.par);
      break;
    case Schedule::ParFused:
      r = fused_par_transform(p, *cluster, opt.par);
      break;
    case Schedule::ParFusedInner:
      r = fused_inner_par_transform(p, *cluster, opt.par);
      break;
    case Schedule::Hybrid:
    case Schedule::Resilient:
      r = resilient_transform(p, *cluster, opt.par);
      break;
    default:
      FIT_CHECK(false, "unreachable schedule dispatch");
  }
  out.c = std::move(r.c);
  out.par = std::move(r.stats);
  return out;
}

}  // namespace fit::core
