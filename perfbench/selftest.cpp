// Self-test of the harness's output checks: each perturbed result must
// be counted as a failed op, and the unperturbed one must not.
//   perfbench_selftest   (exit 0 = every case behaved)
#include <iostream>
#include <optional>
#include <string>

#include "chem/molecule.hpp"
#include "core/problem.hpp"
#include "core/schedules_seq.hpp"
#include "harness.hpp"
#include "serve/service.hpp"

namespace {

int g_bad = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_bad;
}

// Add `delta` to the first nonzero stored element of `c`.
void perturb_one(fit::tensor::PackedC& c, double delta) {
  const std::size_t n = c.n();
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b <= a; ++b)
      for (std::size_t d = 0; d < n; ++d)
        for (std::size_t e = 0; e <= d; ++e)
          if (c.get(a, b, d, e) != 0.0) {
            c.add(a, b, d, e, delta);
            return;
          }
}

}  // namespace

int main() {
  using namespace fit;
  using perfbench::Ledger;

  // dist-real: one changed element of C.
  {
    const core::Problem p =
        core::make_problem(chem::custom_molecule("selftest", 8, 2, 7));
    const tensor::PackedC ref = core::reference_transform(p);
    std::optional<tensor::PackedC> first = core::unfused_transform(p);
    std::optional<tensor::PackedC> same = first;
    std::optional<tensor::PackedC> far = first;
    perturb_one(*far, 1e-6);
    std::optional<tensor::PackedC> near = first;
    perturb_one(*near, 1e-12);

    Ledger l;
    l.record(perfbench::check_dist_result(same, ref, &*first));
    expect(l.failed == 0, "dist-real: unperturbed result passes");
    l.record(perfbench::check_dist_result(far, ref, &*first));
    expect(l.failed == 1, "dist-real: element off by 1e-6 fails (tolerance)");
    l.record(perfbench::check_dist_result(near, ref, &*first));
    expect(l.failed == 2,
           "dist-real: element off by 1e-12 fails (bit-identity)");
    l.record(perfbench::check_dist_result(std::nullopt, ref, &*first));
    expect(l.failed == 3 && l.attempted == 4,
           "dist-real: missing result fails");
  }

  // serve-mix: one altered response checksum.
  {
    serve::TransformService svc{serve::CostOracle{}};
    const std::string line =
        R"({"molecule":"custom","n":8,"irrep_order":2,"nodes":1,"real":true})";
    const std::string rsp = svc.submit_line(line).to_json().dump();
    const perfbench::ServeReply first = perfbench::parse_reply(rsp);
    perfbench::ServeReply again = perfbench::parse_reply(
        svc.submit_line(line).to_json().dump());
    perfbench::ServeReply altered = again;
    altered.checksum += 1;
    perfbench::ServeReply slower = again;
    slower.sim_seconds *= 2;
    const perfbench::ServeReply error = perfbench::parse_reply(
        svc.submit_line(R"({"molecule":"nope"})").to_json().dump());

    Ledger l;
    l.record(perfbench::check_serve_reply(again, first));
    expect(first.checksum != 0 && l.failed == 0,
           "serve-mix: repeated response passes");
    l.record(perfbench::check_serve_reply(altered, first));
    expect(l.failed == 1, "serve-mix: altered checksum fails");
    l.record(perfbench::check_serve_reply(slower, first));
    expect(l.failed == 2, "serve-mix: altered sim_seconds fails");
    l.record(perfbench::check_serve_reply(error, error));
    expect(l.failed == 3, "serve-mix: error response fails");
  }

  // ckpt-real: a storm result that zero-filled.
  {
    const core::Problem p =
        core::make_problem(chem::custom_molecule("selftest", 8, 2, 9));
    const tensor::PackedC clean = core::unfused_transform(p);
    std::optional<tensor::PackedC> survivor = clean;
    std::optional<tensor::PackedC> zeroed = tensor::PackedC(clean.n(), clean.irreps());

    Ledger l;
    l.record(perfbench::check_storm_result(survivor, clean, 3, 0));
    expect(l.failed == 0, "ckpt-real: verified walk-back passes");
    l.record(perfbench::check_storm_result(survivor, clean, 3, 1));
    expect(l.failed == 1, "ckpt-real: zero-filled tile fails");
    l.record(perfbench::check_storm_result(zeroed, clean, 3, 0));
    expect(l.failed == 2, "ckpt-real: zeroed result fails");
    l.record(perfbench::check_storm_result(survivor, clean, 0, 0));
    expect(l.failed == 3, "ckpt-real: no fallback epoch fails");
  }

  std::cout << (g_bad == 0 ? "selftest: all cases behaved\n"
                           : "selftest: FAILED\n");
  return g_bad == 0 ? 0 : 1;
}
