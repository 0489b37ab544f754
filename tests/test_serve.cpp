// The persistent transform service: cost table/oracle behavior, the
// request-parse taxonomy, admission by the fused-inner chain's capacity
// check, schedule-cache bit-identity, and the NDJSON wire layer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "chem/molecule.hpp"
#include "core/problem.hpp"
#include "core/schedules_par.hpp"
#include "obs/json.hpp"
#include "runtime/cluster.hpp"
#include "runtime/machine.hpp"
#include "serve/cost_oracle.hpp"
#include "serve/cost_table.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace fit;
using serve::Admission;
using serve::CostOracle;
using serve::CostTable;
using serve::Request;
using serve::Response;
using serve::TransformService;

std::string temp_path(const std::string& stem) {
  return testing::TempDir() + stem + "." +
         std::to_string(::getpid());
}

// ---------------------------------------------------------------- table

TEST(CostTable, InterpolatesInLogShapeAndClampsAtTheEnds) {
  CostTable t;
  t.add({"gemm", 1e6, 10e9, "test"});
  t.add({"gemm", 1e8, 20e9, "test"});

  // Exact samples come back exactly.
  EXPECT_DOUBLE_EQ(*t.estimate_rate("gemm", 1e6), 10e9);
  EXPECT_DOUBLE_EQ(*t.estimate_rate("gemm", 1e8), 20e9);
  // The geometric midpoint of the shapes is the arithmetic midpoint of
  // the rates (piecewise linear in log shape).
  EXPECT_NEAR(*t.estimate_rate("gemm", 1e7), 15e9, 1e-3);
  // Outside the sampled range but within the decade rule: clamped.
  EXPECT_DOUBLE_EQ(*t.estimate_rate("gemm", 3e5), 10e9);
  EXPECT_DOUBLE_EQ(*t.estimate_rate("gemm", 5e8), 20e9);
  // More than a decade away, or the wrong kind: no bucket, no guess.
  EXPECT_FALSE(t.estimate_rate("gemm", 1e4).has_value());
  EXPECT_FALSE(t.estimate_rate("link", 1e6).has_value());
  EXPECT_TRUE(t.has_bucket("gemm", 2e6));
  EXPECT_FALSE(t.has_bucket("gemm", 1e20));
}

TEST(CostTable, RemeasuringABucketOverwritesInsteadOfDuplicating) {
  CostTable t;
  t.add({"link", 512, 1e9, "old"});
  t.add({"link", 512, 3e9, "new"});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(*t.estimate_rate("link", 512), 3e9);
  EXPECT_EQ(t.samples()[0].origin, "new");
}

TEST(CostTable, RoundTripsThroughDiskAndRejectsMalformedDocuments) {
  CostTable t;
  t.add({"gemm", 2.5e7, 21.5e9, "bench_gemm"});
  t.add({"integrals", 46, 2e8, "bench"});
  const std::string path = temp_path("costs.json");
  ASSERT_TRUE(t.save(path));
  const CostTable back = CostTable::load(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_DOUBLE_EQ(*back.estimate_rate("gemm", 2.5e7), 21.5e9);
  std::remove(path.c_str());

  EXPECT_THROW(CostTable::load("/nonexistent/costs.json"), ParseError);
  EXPECT_THROW(CostTable::from_json(obs::json::parse("{\"schema\":\"x\"}")),
               ParseError);
  EXPECT_THROW(
      CostTable::from_json(obs::json::parse(
          "{\"schema\":\"fourindex.costs/1\",\"samples\":"
          "[{\"kind\":\"gemm\",\"shape\":-1,\"rate\":1}]}")),
      ParseError);
}

// --------------------------------------------------------------- oracle

TEST(CostOracle, EmptyTableFallsBackToNominalRates) {
  const runtime::MachineConfig m = runtime::system_a(1);
  const CostOracle oracle;
  const core::PlanRates r = oracle.rates(m, 46, 4);
  EXPECT_EQ(r.source, "nominal");
  EXPECT_DOUBLE_EQ(r.flops_per_rank, m.flops_per_rank);
  EXPECT_DOUBLE_EQ(r.net_bandwidth_bps, m.net_bandwidth_bps);
  EXPECT_GT(oracle.fallbacks(), 0u);
}

TEST(CostOracle, BackedGemmBucketYieldsMeasuredRates) {
  const runtime::MachineConfig m = runtime::system_a(1);
  CostTable t;
  // Request shape for n=46, tile=4 is 2 * 46^3 * 4 ~ 7.8e5.
  t.add({"gemm", 8e5, 15e9, "test"});
  const CostOracle oracle(t);
  const core::PlanRates r = oracle.rates(m, 46, 4);
  EXPECT_EQ(r.source, "measured");
  EXPECT_NEAR(r.flops_per_rank, 15e9, 1e-3);
  // link/integrals buckets are absent: loud fallback to nominal.
  EXPECT_DOUBLE_EQ(r.net_bandwidth_bps, m.net_bandwidth_bps);
  EXPECT_GT(oracle.fallbacks(), 0u);
}

TEST(CostOracle, BrokenCostTableEnvIsARefusalNotADegrade) {
  const std::string path = temp_path("broken.json");
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{not json", f);
  std::fclose(f);
  ::setenv("FOURINDEX_COST_TABLE", path.c_str(), 1);
  EXPECT_THROW(CostOracle::from_env(), ParseError);
  ::unsetenv("FOURINDEX_COST_TABLE");
  std::remove(path.c_str());
}

// ------------------------------------------------------- parse taxonomy

std::string parse_error_of(const std::string& json) {
  try {
    serve::parse_request(obs::json::parse(json));
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(ParseRequest, TaxonomyIsStable) {
  EXPECT_EQ(parse_error_of("[1,2]"), "request is not a JSON object");
  EXPECT_EQ(parse_error_of("{}"), "missing string field 'molecule'");
  EXPECT_EQ(parse_error_of("{\"molecule\":\"Benzene\"}"),
            "unknown molecule 'Benzene'");
  EXPECT_EQ(parse_error_of("{\"molecule\":\"Uracil\",\"system\":\"Q\"}"),
            "unknown system 'Q' (want A|B|C)");
  EXPECT_EQ(
      parse_error_of("{\"molecule\":\"Uracil\",\"balance\":\"chaotic\"}"),
      "unknown balance mode 'chaotic'");
  EXPECT_EQ(parse_error_of("{\"molecule\":\"Uracil\",\"nodes\":0}"),
            "field 'nodes' must be a positive number");
  EXPECT_EQ(parse_error_of("{\"molecule\":\"Uracil\",\"tile\":2.5}"),
            "field 'tile' must be a positive number");
  EXPECT_EQ(parse_error_of("{\"molecule\":\"custom\"}"),
            "custom molecule needs field 'n' >= 2");

  const Request r = serve::parse_request(obs::json::parse(
      "{\"molecule\":\"custom\",\"n\":24,\"irrep_order\":2,"
      "\"nodes\":2,\"balance\":\"steal\",\"real\":true}"));
  EXPECT_EQ(r.custom_n, 24u);
  EXPECT_EQ(r.custom_s, 2u);
  EXPECT_EQ(r.n_nodes, 2u);
  EXPECT_EQ(r.balance, "steal");
  EXPECT_TRUE(r.real);
}

TEST(ParseRequest, IrrepOrderIsAPowerOfTwoUpTo32) {
  const std::string want = "field 'irrep_order' must be a power of two <= 32";
  for (const char* order : {"3", "6", "64", "1024"})
    EXPECT_EQ(parse_error_of(std::string(R"({"molecule":"custom","n":40,)") +
                             R"("irrep_order":)" + order + "}"),
              want)
        << order;
  for (unsigned order : {1u, 2u, 4u, 8u, 16u, 32u})
    EXPECT_EQ(serve::parse_request(
                  obs::json::parse(R"({"molecule":"custom","n":40,)"
                                   R"("irrep_order":)" +
                                   std::to_string(order) + "}"))
                  .custom_s,
              order);

  // The tile masks hold 32 irreps; an order of 64 would shift a 32-bit
  // mask by up to 63.
  TransformService svc{CostOracle{}};
  const Response rsp = svc.submit_line(
      R"({"molecule":"custom","n":40,"irrep_order":64,"plan_only":true})");
  EXPECT_EQ(rsp.admission, Admission::Error);
  EXPECT_EQ(rsp.error, want);
  EXPECT_EQ(svc.reserved_bytes(), 0.0);
}

// A size field outside size_t's range is a taxonomy error, tested
// before the double is converted (converting it is undefined, and
// UBSan's float-cast-overflow check reports it).
TEST(ParseRequest, SizeFieldsAreRangeCheckedBeforeTheCast) {
  for (const char* v : {"1e20", "1e300", "-1", "18446744073709551616"})
    EXPECT_EQ(parse_error_of(std::string(R"({"molecule":"Uracil","nodes":)") +
                             v + "}"),
              "field 'nodes' must be a positive number")
        << v;
  EXPECT_EQ(parse_error_of(R"({"molecule":"custom","n":1e20})"),
            "field 'n' must be a positive number");
  EXPECT_EQ(parse_error_of(R"({"molecule":"Uracil","batch":-1})"),
            "field 'batch' must be a positive number");
}

// A release ticket outside [1, 2^64) is no reservation's ticket.
TEST(Server, OutOfRangeTicketIsAnUnknownTicket) {
  serve::Server server(TransformService{CostOracle{}},
                       temp_path("serve-ticket.sock"));
  for (const char* t : {"-1", "1e30"}) {
    const obs::json::Value rsp = obs::json::parse(server.handle_line(
        std::string(R"({"verb":"release","ticket":)") + t + "}"));
    EXPECT_EQ(rsp.find("outcome")->as_string(), "released") << t;
    const obs::json::Value& ran = *rsp.find("ran");
    ASSERT_EQ(ran.size(), 1u) << t;
    EXPECT_EQ(ran.at(0).find("outcome")->as_string(), "error") << t;
    EXPECT_EQ(ran.at(0).find("error")->as_string().rfind("unknown ticket", 0),
              0u)
        << t;
  }
}

TEST(ParseRequest, MalformedLinesBecomeErrorResponsesNotExceptions) {
  TransformService svc{CostOracle{}};
  const Response bad_json = svc.submit_line("{oops");
  EXPECT_EQ(bad_json.admission, Admission::Error);
  EXPECT_FALSE(bad_json.error.empty());
  const Response bad_req = svc.submit_line("{\"molecule\":\"Benzene\"}");
  EXPECT_EQ(bad_req.admission, Admission::Error);
  EXPECT_EQ(bad_req.error, "unknown molecule 'Benzene'");
  EXPECT_EQ(svc.metrics().sum("serve.errors"), 2.0);
}

TEST(ParseRequest, FailureAfterParsingEchoesBatchAndTenant) {
  // The line parses and is admitted, then the run throws (the schedule
  // reads a malformed FOURINDEX_COUNTER_BATCH): the error reply must
  // still carry the request's batch width and tenant, not a default
  // Response's.
  TransformService svc{CostOracle{}};
  ::setenv("FOURINDEX_COUNTER_BATCH", "bogus", 1);
  const Response rsp = svc.submit_line(
      "{\"molecule\":\"custom\",\"n\":8,\"irrep_order\":2,"
      "\"batch\":2,\"tenant\":\"beta\"}");
  ::unsetenv("FOURINDEX_COUNTER_BATCH");
  EXPECT_EQ(rsp.admission, Admission::Error);
  EXPECT_NE(rsp.error.find("FOURINDEX_COUNTER_BATCH"), std::string::npos)
      << rsp.error;
  EXPECT_EQ(rsp.batch, 2u);
  EXPECT_EQ(rsp.tenant, "beta");
  const obs::json::Value doc = rsp.to_json();
  EXPECT_EQ(doc.find("batch")->as_number(), 2.0);
  EXPECT_EQ(doc.find("tenant")->as_string(), "beta");
  EXPECT_EQ(svc.metrics().sum("serve.errors"), 1.0);
  EXPECT_EQ(svc.reserved_bytes(), 0.0);
}

// ------------------------------------------------------------- admission

// A plan_only Hyperpolar request on 4 System A nodes.
Request hyperpolar_hold() {
  Request r;
  r.molecule = "Hyperpolar";
  r.n_nodes = 4;
  r.plan_only = true;
  return r;
}

// check_capacity's aggregate peak on the idle machine for the one chain
// the service runs, for a paper molecule on System A.
double fused_inner_peak(const Request& r) {
  const auto p = core::make_problem(chem::paper_molecule(r.molecule));
  core::ParOptions o;
  o.tile = r.tile;
  o.tile_l = r.tile_l;
  return core::check_capacity(p, core::Chain::FusedInner, r.batch, o,
                              core::CapacityView::idle(
                                  runtime::system_a(r.n_nodes)))
      .aggregate_peak_bytes;
}

TEST(Admission, WalksAdmittedToQueuedAndRejected) {
  TransformService::Options opt;
  opt.queue_depth = 1;
  TransformService svc{CostOracle{}, opt};

  // Each hold reserves the fused-inner chain's aggregate peak (7.92 MB)
  // of the 23.4 MB machine: two fit, the third waits in the one queue
  // slot, the fourth finds the queue full.
  const Request r = hyperpolar_hold();
  const double peak = fused_inner_peak(r);
  std::vector<Response> rsp;
  for (int i = 0; i < 4; ++i) rsp.push_back(svc.submit(r));
  const std::vector<Admission> want = {
      Admission::Admitted, Admission::Admitted, Admission::Queued,
      Admission::Rejected};
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(rsp[i].admission, want[i]) << "request " << i;
  EXPECT_EQ(rsp[0].fusion, "fused-inner");
  EXPECT_EQ(rsp[3].error, "queue full (1 waiting slots)");
  EXPECT_EQ(svc.reserved_bytes(), 2.0 * peak);
  EXPECT_EQ(svc.queued(), 1u);
  EXPECT_EQ(svc.metrics().sum("serve.admitted"), 2.0);
  EXPECT_EQ(svc.metrics().sum("serve.queued"), 1.0);
  EXPECT_EQ(svc.metrics().sum("serve.rejected"), 1.0);

  // Releasing the first hold retries the queue: the parked request is
  // admitted and holds the released bytes.
  const std::vector<Response> ran = svc.release(rsp[0].ticket);
  ASSERT_EQ(ran.size(), 1u);
  EXPECT_EQ(ran[0].admission, Admission::Admitted);
  EXPECT_NE(ran[0].ticket, 0u);
  EXPECT_EQ(svc.queued(), 0u);
  EXPECT_EQ(svc.reserved_bytes(), 2.0 * peak);
  EXPECT_GE(svc.metrics().sum("serve.released"), 1.0);

  // An unknown ticket is an error response, not a crash.
  const std::vector<Response> nope = svc.release(999999);
  ASSERT_EQ(nope.size(), 1u);
  EXPECT_EQ(nope[0].admission, Admission::Error);
}

// A hold reserves what its chain holds at its peak, summed over the
// ranks: check_capacity's aggregate peak, solo or batched.
TEST(Admission, HoldReservesTheCapacityChecksAggregatePeak) {
  TransformService svc{CostOracle{}};
  const Request solo = hyperpolar_hold();
  ASSERT_EQ(svc.submit(solo).admission, Admission::Admitted);
  EXPECT_EQ(svc.reserved_bytes(), fused_inner_peak(solo));
  EXPECT_NEAR(svc.reserved_bytes(), 7.92e6, 0.01e6);

  TransformService svc2{CostOracle{}};
  Request batch = solo;
  batch.batch = 2;
  ASSERT_EQ(svc2.submit(batch).admission, Admission::Admitted);
  EXPECT_EQ(svc2.reserved_bytes(), fused_inner_peak(batch));
  EXPECT_GT(svc2.reserved_bytes(), fused_inner_peak(solo));
}

// A request that waited in the queue runs exactly as it would have on
// the idle machine.
TEST(Admission, DrainedRequestReturnsItsIdleRun) {
  Request hold = hyperpolar_hold();
  hold.tenant = "t";
  Request real;
  real.molecule = "custom";
  real.custom_n = 12;
  real.custom_s = 2;
  real.real = true;
  real.tenant = "t";

  TransformService idle{CostOracle{}};
  const Response want = idle.submit(real);
  ASSERT_EQ(want.admission, Admission::Admitted);
  ASSERT_NE(want.result_checksum, 0.0);

  // The tenant's quota holds the hold and no more, so the Real request
  // waits for the hold's release.
  TransformService::Options opt;
  opt.tenant_quota_bytes = fused_inner_peak(hold) + 8.0;
  TransformService svc{CostOracle{}, opt};
  const Response h = svc.submit(hold);
  ASSERT_EQ(h.admission, Admission::Admitted);
  const Response q = svc.submit(real);
  ASSERT_EQ(q.admission, Admission::Queued);
  EXPECT_EQ(q.sim_seconds, 0.0);

  const std::vector<Response> ran = svc.release(h.ticket);
  ASSERT_EQ(ran.size(), 1u);
  EXPECT_EQ(ran[0].admission, Admission::Admitted);
  EXPECT_EQ(ran[0].fusion, "fused-inner");
  EXPECT_EQ(ran[0].sim_seconds, want.sim_seconds);
  EXPECT_EQ(ran[0].result_checksum, want.result_checksum);
  EXPECT_EQ(svc.reserved_bytes(), 0.0);
}

TEST(Admission, ProblemBeyondTheIdleMachineIsRejectedOutright) {
  TransformService svc{CostOracle{}};
  Request r;
  r.molecule = "custom";
  r.custom_n = 1024;  // C alone needs > SystemA x1's aggregate
  r.custom_s = 1;
  r.n_nodes = 1;
  r.plan_only = true;
  const Response rsp = svc.submit(r);
  EXPECT_EQ(rsp.admission, Admission::Rejected);
  // Rejected by the C guard, before any tile grid (256^4 C cells at
  // tile 4) is walked.
  EXPECT_EQ(rsp.error.rfind("exceeds the idle machine: every member's C "
                            "alone holds ",
                            0),
            0u)
      << rsp.error;
  EXPECT_EQ(svc.queued(), 0u);
  EXPECT_EQ(svc.reserved_bytes(), 0.0);
}

// A request past the service's bounds is rejected before anything is
// built, or before its capacity check walks more tile-grid cells than
// the service allows, quickly, and the service answers the next
// request. So is a request within every bound whose check builds
// thousands of arrays (64 members x 46 l slices) on 65,536 ranks.
TEST(Admission, RequestBeyondTheServiceBoundsIsRejectedUpFront) {
  serve::Server server(TransformService{CostOracle{}},
                       temp_path("serve-bounds.sock"));
  const std::pair<const char*, const char*> cases[] = {
      {R"({"molecule":"custom","n":10,"nodes":1e15,"plan_only":true})",
       "exceeds the service's bounds: 1000000000000000 nodes of 8 ranks"},
      {R"({"molecule":"custom","n":200,"nodes":4096,"tile":1,"plan_only":true})",
       "exceeds the service's bounds: the capacity check's dry run walks "
       "more than 8.39e+06 tile-grid cells"},
      {R"({"molecule":"custom","n":4096,"irrep_order":32,"plan_only":true})",
       "exceeds the service's bounds: n = 4096 is more than"},
      {R"({"molecule":"Uracil","batch":1000,"plan_only":true})",
       "exceeds the service's bounds: a batch of 1000 is more than"},
      {R"({"molecule":"Hyperpolar","nodes":8192,"tile":8,"tile_l":1,"batch":64,"plan_only":true})",
       "exceeds the idle machine: rank "},
  };
  for (const auto& [line, want] : cases) {
    const auto t0 = std::chrono::steady_clock::now();
    const obs::json::Value rsp = obs::json::parse(server.handle_line(line));
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_EQ(rsp.find("outcome")->as_string(), "rejected") << line;
    EXPECT_EQ(rsp.find("error")->as_string().rfind(want, 0), 0u)
        << rsp.find("error")->as_string();
    EXPECT_LT(ms, 1000.0) << line;
    const obs::json::Value stats =
        obs::json::parse(server.handle_line(R"({"verb":"stats"})"));
    EXPECT_NE(stats.find("serve.rejected"), nullptr);
  }
  EXPECT_EQ(server.service().reserved_bytes(), 0.0);
  EXPECT_EQ(server.service().metrics().sum("serve.rejected"), 5.0);
}

// Each machine is its own reservation pool: a hold on System A x4
// leaves an idle System A x1 free.
TEST(Admission, HoldOnOneMachineLeavesAnotherMachineFree) {
  TransformService svc{CostOracle{}};
  const Response hold = svc.submit(hyperpolar_hold());
  ASSERT_EQ(hold.admission, Admission::Admitted);
  Request small;
  small.molecule = "custom";
  small.custom_n = 12;
  small.n_nodes = 1;
  small.plan_only = true;
  const Response rsp = svc.submit(small);
  EXPECT_EQ(rsp.admission, Admission::Admitted) << rsp.error;
  // The gauge and reserved_bytes() report the sum over the machines.
  EXPECT_GT(svc.reserved_bytes(), fused_inner_peak(hyperpolar_hold()));
  EXPECT_EQ(svc.metrics().sum("serve.reserved_bytes"), svc.reserved_bytes());
  svc.release(hold.ticket);
  svc.release(rsp.ticket);
  EXPECT_EQ(svc.reserved_bytes(), 0.0);
}

// perfbench's known-defect request: a batch of two n = 32 transforms on
// System A x 2. The request spells the irrep order "s", a key the
// parser ignores, so s = 1. C is placed by pair row, so ranks 0-9 hold
// both members' C, and rank 0 cannot also hold its share of the A_l
// slices: the request must be rejected up front, naming the rank and
// its bytes, rather than admitted to run out of memory.
TEST(Admission, ChainBeyondOneRankOfTheIdleMachineIsRejected) {
  const std::string line =
      R"({"molecule":"custom","n":32,"s":4,"nodes":2,"tile":8,)"
      R"("real":true,"batch":2)";
  for (const std::string& l : {line + "}", line + R"(,"plan_only":true})"}) {
    TransformService svc{CostOracle{}};
    const Response rsp = svc.submit_line(l);
    EXPECT_EQ(rsp.admission, Admission::Rejected) << l;
    EXPECT_EQ(rsp.error.rfind("exceeds the idle machine: rank 0 peaks at ",
                              0),
              0u)
        << rsp.error;
    EXPECT_NE(rsp.error.find(" KB free"), std::string::npos) << rsp.error;
    EXPECT_EQ(svc.reserved_bytes(), 0.0);
    EXPECT_EQ(svc.queued(), 0u);
    EXPECT_EQ(svc.metrics().sum("serve.errors"), 0.0);
  }

  // With the irrep order spelled out the fused-inner batch fits, and
  // each member's result is its solo run's, bit for bit.
  TransformService svc{CostOracle{}};
  const Response ok = svc.submit_line(
      R"({"molecule":"custom","n":32,"irrep_order":4,"nodes":2,"tile":8,)"
      R"("real":true,"batch":2})");
  ASSERT_EQ(ok.admission, Admission::Admitted) << ok.error;
  EXPECT_NE(ok.result_checksum, 0.0);
  const auto p = core::make_problem(chem::custom_molecule("serve", 32, 4));
  core::ParOptions o;
  o.tile = 8;
  o.tile_l = 8;
  const auto bs = core::batch_member_bs(p, 2);
  runtime::Cluster cb(runtime::system_a(2), runtime::ExecutionMode::Real);
  const auto batch = core::batched_fused_inner_par_transform(p, bs, cb, o);
  for (std::size_t m = 0; m < bs.size(); ++m) {
    auto pm = core::make_problem(p.molecule);
    pm.b = bs[m];
    runtime::Cluster cs(runtime::system_a(2), runtime::ExecutionMode::Real);
    const auto solo = core::fused_inner_par_transform(pm, cs, o);
    ASSERT_TRUE(batch.c[m] && solo.c);
    EXPECT_EQ(batch.c[m]->max_abs_diff(*solo.c), 0.0) << "member " << m;
  }
}

// No admitted request may run out of memory: a sweep of
// small Real requests, many past what a rank of System A holds, gets
// every answer but an error.
TEST(Admission, SmallRealSweepNeverAnswersError) {
  TransformService svc{CostOracle{}};
  SplitMix64 g(19);
  std::size_t executed = 0, rejected = 0;
  for (int i = 0; i < 32; ++i) {
    Request r;
    r.molecule = "custom";
    r.custom_n = 12 + g.next_below(25);
    r.custom_s = 1u << g.next_below(3);
    r.n_nodes = 1 + g.next_below(2);
    r.tile = 4u << g.next_below(2);
    r.tile_l = 4u << g.next_below(2);
    r.batch = 1 + g.next_below(3);
    r.real = true;
    const Response rsp = svc.submit(r);
    EXPECT_NE(rsp.admission, Admission::Error)
        << "n=" << r.custom_n << " s=" << r.custom_s
        << " nodes=" << r.n_nodes << " tile=" << r.tile
        << " tile_l=" << r.tile_l << " batch=" << r.batch << ": "
        << rsp.error;
    if (rsp.admission == Admission::Admitted) {
      EXPECT_NE(rsp.result_checksum, 0.0);
      executed += 1;
    }
    rejected += rsp.admission == Admission::Rejected ? 1 : 0;
  }
  EXPECT_GT(executed, 0u);
  EXPECT_GT(rejected, 0u);
}

// ------------------------------------------------- batches and tenants

TEST(ParseRequest, BatchAndTenantFieldsParse) {
  const Request r = serve::parse_request(obs::json::parse(
      "{\"molecule\":\"Uracil\",\"batch\":8,\"tenant\":\"groupA\"}"));
  EXPECT_EQ(r.batch, 8u);
  EXPECT_EQ(r.tenant, "groupA");
  // Defaults: a solo anonymous request.
  const Request d = serve::parse_request(
      obs::json::parse("{\"molecule\":\"Uracil\"}"));
  EXPECT_EQ(d.batch, 1u);
  EXPECT_TRUE(d.tenant.empty());
  EXPECT_EQ(parse_error_of("{\"molecule\":\"Uracil\",\"batch\":0}"),
            "field 'batch' must be a positive number");
}

TEST(Batch, BatchedRequestAmortizesAndIsDeterministic) {
  TransformService svc{CostOracle{}};
  Request r;
  r.molecule = "custom";
  r.custom_n = 12;
  r.custom_s = 2;
  r.n_nodes = 1;
  r.tile = 4;
  r.tile_l = 4;
  r.real = true;

  const Response solo = svc.submit(r);
  ASSERT_EQ(solo.admission, Admission::Admitted);
  ASSERT_NE(solo.result_checksum, 0.0);

  Request rb = r;
  rb.batch = 3;
  const Response b1 = svc.submit(rb);
  ASSERT_EQ(b1.admission, Admission::Admitted);
  EXPECT_EQ(b1.batch, 3u);
  // The batch width is part of the fingerprint: no false sharing with
  // the solo entry.
  EXPECT_FALSE(b1.cache_hit);
  ASSERT_NE(b1.result_checksum, 0.0);
  EXPECT_NE(b1.result_checksum, solo.result_checksum);
  // Amortization: the A fill is paid once, so three members cost less
  // than three solo transforms (but more than one).
  EXPECT_LT(b1.sim_seconds, 3.0 * solo.sim_seconds);
  EXPECT_GT(b1.sim_seconds, solo.sim_seconds);

  // Warm replay of the batch is bit-identical.
  const Response b2 = svc.submit(rb);
  EXPECT_TRUE(b2.cache_hit);
  EXPECT_EQ(b2.result_checksum, b1.result_checksum);

  // A fresh service reproduces the same member fold: the batch result
  // is a pure function of the request.
  TransformService other{CostOracle{}};
  EXPECT_EQ(other.submit(rb).result_checksum, b1.result_checksum);

  EXPECT_GE(svc.metrics().sum("serve.batch_requests"), 2.0);
  EXPECT_GE(svc.metrics().sum("serve.batch_members"), 6.0);
}

TEST(Tenancy, RequestBeyondTheQuotaIsRejectedOutright) {
  TransformService::Options opt;
  opt.tenant_quota_bytes = 1024;  // far below any transform's need
  TransformService svc{CostOracle{}, opt};
  Request r;
  r.molecule = "custom";
  r.custom_n = 16;
  r.n_nodes = 1;
  r.plan_only = true;
  r.tenant = "small";
  const Response rsp = svc.submit(r);
  EXPECT_EQ(rsp.admission, Admission::Rejected);
  EXPECT_NE(rsp.error.find("exceeds the tenant quota"),
            std::string::npos);
  EXPECT_GE(svc.metrics().sum("serve.quota_rejected"), 1.0);
  EXPECT_EQ(svc.queued(), 0u);
  EXPECT_EQ(svc.reserved_bytes(), 0.0);
}

TEST(Tenancy, QuotaCapsEachTenantAndDrainRotatesAcrossThem) {
  Request r;
  r.molecule = "Hyperpolar";
  r.n_nodes = 4;
  r.plan_only = true;

  // Probe the reservation size of one admission on the idle machine.
  TransformService probe{CostOracle{}};
  ASSERT_EQ(probe.submit(r).admission, Admission::Admitted);
  const double need = probe.reserved_bytes();
  ASSERT_GT(need, 0.0);

  // Quota: one reservation per tenant, plus change too small for any
  // other request.
  TransformService::Options opt;
  opt.queue_depth = 4;
  opt.tenant_quota_bytes = need + 8.0;
  TransformService svc{CostOracle{}, opt};

  Request ra = r;
  ra.tenant = "alice";
  Request rb = r;
  rb.tenant = "bob";

  const Response a1 = svc.submit(ra);
  ASSERT_EQ(a1.admission, Admission::Admitted);
  EXPECT_EQ(a1.tenant, "alice");
  // Alice's quota is now full: her next request queues even though the
  // machine has plenty of memory left.
  const Response a2 = svc.submit(ra);
  ASSERT_EQ(a2.admission, Admission::Queued);
  // Bob's quota is his own: he is admitted immediately.
  const Response b1 = svc.submit(rb);
  ASSERT_EQ(b1.admission, Admission::Admitted);
  const Response b2 = svc.submit(rb);
  ASSERT_EQ(b2.admission, Admission::Queued);
  EXPECT_LE(svc.tenant_reserved("alice"), opt.tenant_quota_bytes);
  EXPECT_LE(svc.tenant_reserved("bob"), opt.tenant_quota_bytes);

  // Queue order is [alice, bob]. Releasing bob's hold must run bob's
  // queued request even though alice's blocked head sits ahead of it —
  // the drain rotates across tenants instead of wedging FIFO.
  const auto ran = svc.release(b1.ticket);
  ASSERT_EQ(ran.size(), 1u);
  EXPECT_EQ(ran[0].tenant, "bob");
  EXPECT_EQ(ran[0].admission, Admission::Admitted);
  EXPECT_EQ(svc.queued(), 1u);

  // Releasing alice's hold frees her parked request too.
  const auto ran2 = svc.release(a1.ticket);
  ASSERT_EQ(ran2.size(), 1u);
  EXPECT_EQ(ran2[0].tenant, "alice");
  EXPECT_EQ(svc.queued(), 0u);
}

// -------------------------------------------------------- schedule cache

TEST(ScheduleCache, RepeatedRequestHitsAndReplaysBitIdentically) {
  TransformService svc{CostOracle{}};
  Request r;
  r.molecule = "custom";
  r.custom_n = 12;
  r.custom_s = 2;
  r.n_nodes = 1;
  r.balance = "auto";
  r.tile = 4;
  r.tile_l = 4;
  r.real = true;

  const Response cold = svc.submit(r);
  ASSERT_EQ(cold.admission, Admission::Admitted);
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_NE(cold.result_checksum, 0.0);

  const Response warm = svc.submit(r);
  ASSERT_EQ(warm.admission, Admission::Admitted);
  EXPECT_TRUE(warm.cache_hit);
  // Bit-identical transform result: every balance mode writes each
  // output tile from exactly one task, so replaying the memoized
  // per-phase picks must reproduce the cold run's bytes exactly.
  EXPECT_EQ(warm.result_checksum, cold.result_checksum);
  EXPECT_EQ(warm.fusion, cold.fusion);

  EXPECT_GE(svc.metrics().sum("serve.cache_hits"), 1.0);
  EXPECT_EQ(svc.metrics().sum("serve.cache_misses"), 1.0);
  // The warm run replayed the Auto picks out of the memo: at least one
  // per-phase DES re-plan was skipped.
  EXPECT_GE(svc.metrics().sum("serve.des_skips"), 1.0);

  // A different balance mode is a different fingerprint — no false
  // sharing between schedules.
  Request other = r;
  other.balance = "static";
  const Response miss = svc.submit(other);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(miss.result_checksum, cold.result_checksum);
}

// ------------------------------------------------------------ wire layer

TEST(Server, SpeaksNdjsonOverAUnixSocket) {
  const std::string sock = temp_path("serve.sock");
  serve::Server server(TransformService{CostOracle{}}, sock);

  std::thread loop([&] { server.serve_forever(/*max_requests=*/4); });
  const std::string req =
      "{\"molecule\":\"custom\",\"n\":12,\"irrep_order\":2,\"nodes\":1,"
      "\"real\":true}";
  const obs::json::Value cold =
      obs::json::parse(serve::Server::request(sock, req));
  const obs::json::Value warm =
      obs::json::parse(serve::Server::request(sock, req));
  EXPECT_EQ(cold.find("outcome")->as_string(), "admitted");
  EXPECT_TRUE(warm.find("cache_hit")->as_bool());
  EXPECT_EQ(warm.find("result_checksum")->as_number(),
            cold.find("result_checksum")->as_number());

  const obs::json::Value stats =
      obs::json::parse(serve::Server::request(sock, "{\"verb\":\"stats\"}"));
  EXPECT_DOUBLE_EQ(
      stats.find("serve.cache_hits")->find("sum")->as_number(), 1.0);

  const obs::json::Value bye = obs::json::parse(
      serve::Server::request(sock, "{\"verb\":\"shutdown\"}"));
  EXPECT_EQ(bye.find("outcome")->as_string(), "shutdown");
  loop.join();
}

// ---- doc-as-test: the serving examples run verbatim ------------------
//
// README "Serving" and DESIGN §4.8 embed ```json blocks of NDJSON
// request lines under a documented contract: they are executable.
// These tests extract the blocks and run every line through an
// in-process server; scripts/docs_examples.sh is the over-the-socket
// leg of the same contract. A protocol change that orphans the docs
// fails here, in the tier-1 suite.

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// The fenced ```lang blocks between the exact heading line `section`
// and the next heading starting with `end_prefix`.
std::vector<std::vector<std::string>> fenced_blocks(
    const std::vector<std::string>& lines, const std::string& section,
    const std::string& end_prefix, const std::string& lang) {
  std::vector<std::vector<std::string>> blocks;
  bool in_section = false;
  bool in_block = false;
  for (const std::string& line : lines) {
    if (!in_section) {
      in_section = line == section;
      continue;
    }
    if (!in_block && line.rfind(end_prefix, 0) == 0) break;
    if (!in_block) {
      if (line == "```" + lang) {
        in_block = true;
        blocks.emplace_back();
      }
      continue;
    }
    if (line == "```") {
      in_block = false;
      continue;
    }
    blocks.back().push_back(line);
  }
  return blocks;
}

// One documented block against a fresh server: every request line must
// come back as a response that is not an error (`# comment` lines are
// skipped, exactly as the --client pipe mode skips them).
void run_documented_block(const std::vector<std::string>& block) {
  serve::Server server(TransformService{CostOracle{}},
                       temp_path("docs-example.sock"));
  std::size_t requests = 0;
  for (const std::string& line : block) {
    if (line.empty() || line[0] == '#') continue;
    ++requests;
    const std::string raw = server.handle_line(line);
    const obs::json::Value rsp = obs::json::parse(raw);
    if (const obs::json::Value* outcome = rsp.find("outcome")) {
      EXPECT_NE(outcome->as_string(), "error")
          << "documented request errored: " << line
          << "\nresponse: " << raw;
    }
  }
  EXPECT_GE(requests, 1u) << "example block contains no request lines";
}

TEST(DocExamples, ReadmeServingRequestsExecuteVerbatim) {
  const auto lines =
      read_lines(std::string(FOURINDEX_SOURCE_DIR) + "/README.md");
  ASSERT_FALSE(lines.empty()) << "cannot read README.md";
  const auto blocks = fenced_blocks(lines, "## Serving", "## ", "json");
  ASSERT_FALSE(blocks.empty())
      << "README Serving carries no ```json example blocks";
  for (const auto& block : blocks) run_documented_block(block);
}

TEST(DocExamples, DesignSection48RequestsExecuteVerbatim) {
  const auto lines =
      read_lines(std::string(FOURINDEX_SOURCE_DIR) + "/DESIGN.md");
  ASSERT_FALSE(lines.empty()) << "cannot read DESIGN.md";
  const auto blocks = fenced_blocks(
      lines,
      "### 4.8 The persistent transform service and the measured-cost "
      "oracle",
      "## ", "json");
  ASSERT_FALSE(blocks.empty())
      << "DESIGN §4.8 carries no ```json example blocks";
  for (const auto& block : blocks) run_documented_block(block);
}

TEST(Server, MalformedLineKeepsTheLoopAlive) {
  const std::string sock = temp_path("serve-err.sock");
  serve::Server server(TransformService{CostOracle{}}, sock);
  const obs::json::Value err =
      obs::json::parse(server.handle_line("{not json"));
  EXPECT_EQ(err.find("outcome")->as_string(), "error");
  EXPECT_FALSE(err.find("error")->as_string().empty());
  // The service is still usable after the bad line.
  const obs::json::Value ok = obs::json::parse(server.handle_line(
      "{\"molecule\":\"custom\",\"n\":10,\"nodes\":1,\"plan_only\":true}"));
  EXPECT_EQ(ok.find("outcome")->as_string(), "admitted");
}

}  // namespace
