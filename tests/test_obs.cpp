// Observability layer: JSON document model round-trips, metrics
// registry aggregation across simulated ranks, bench-report golden
// schema, and the Chrome trace exported by a Simulate-mode cluster run
// (well-formed, one track per rank, per-rank spans non-overlapping).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "core/problem.hpp"
#include "core/schedules_par.hpp"
#include "obs/bench_json.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "runtime/cluster.hpp"
#include "runtime/machine.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace {

using namespace fit;

// ---- json::Value ---------------------------------------------------

TEST(ObsJson, DumpParseRoundTrip) {
  obs::json::Value doc = obs::json::Value::object();
  doc["string"] = "hello \"quoted\" \\ backslash\n";
  doc["int"] = 42;
  doc["float"] = 2.5;
  doc["flag"] = true;
  doc["nothing"];  // operator[] inserts null
  doc["list"].push_back(1);
  doc["list"].push_back("two");
  doc["nested"]["inner"] = 3;

  for (int indent : {-1, 2}) {
    auto parsed = obs::json::parse(doc.dump(indent));
    ASSERT_TRUE(parsed.is_object());
    EXPECT_EQ(parsed.find("string")->as_string(),
              "hello \"quoted\" \\ backslash\n");
    EXPECT_EQ(parsed.find("int")->as_number(), 42);
    EXPECT_EQ(parsed.find("float")->as_number(), 2.5);
    EXPECT_TRUE(parsed.find("flag")->as_bool());
    EXPECT_TRUE(parsed.find("nothing")->is_null());
    ASSERT_EQ(parsed.find("list")->size(), 2u);
    EXPECT_EQ(parsed.find("list")->at(1).as_string(), "two");
    EXPECT_EQ(parsed.find("nested")->find("inner")->as_number(), 3);
  }
}

TEST(ObsJson, PreservesInsertionOrder) {
  obs::json::Value doc = obs::json::Value::object();
  doc["zebra"] = 1;
  doc["apple"] = 2;
  doc["mango"] = 3;
  EXPECT_EQ(doc.member(0).first, "zebra");
  EXPECT_EQ(doc.member(1).first, "apple");
  EXPECT_EQ(doc.member(2).first, "mango");
  EXPECT_EQ(doc.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
}

TEST(ObsJson, MalformedInputThrows) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1,}", "tru", "\"unterminated",
        "1 2", "{\"a\" 1}", "[1 2]", "nul", "{'a':1}"}) {
    EXPECT_THROW((void)obs::json::parse(bad), obs::json::ParseError)
        << "input: " << bad;
  }
}

TEST(ObsJson, NonFiniteNumbersSerializeAsNull) {
  obs::json::Value doc = obs::json::Value::object();
  doc["inf"] = std::numeric_limits<double>::infinity();
  doc["nan"] = std::numeric_limits<double>::quiet_NaN();
  auto parsed = obs::json::parse(doc.dump());
  EXPECT_TRUE(parsed.find("inf")->is_null());
  EXPECT_TRUE(parsed.find("nan")->is_null());
}

// ---- MetricsRegistry ------------------------------------------------

TEST(ObsMetrics, AggregatesAcrossRanks) {
  obs::MetricsRegistry reg(4);
  const auto bytes = reg.counter("comm.bytes");
  for (std::size_t r = 0; r < 4; ++r)
    reg.add(bytes, r, 100.0 * double(r + 1));
  reg.add(bytes, 0, 50.0);  // counters accumulate

  EXPECT_EQ(reg.sum("comm.bytes"), 100 + 200 + 300 + 400 + 50);
  EXPECT_EQ(reg.max("comm.bytes"), 400);
  EXPECT_EQ(reg.value("comm.bytes", 0), 150);
  EXPECT_EQ(reg.value("comm.bytes", 3), 400);

  const auto mem = reg.gauge("mem.used");
  reg.set(mem, 2, 10);
  reg.set(mem, 2, 7);  // gauges overwrite
  EXPECT_EQ(reg.value("mem.used", 2), 7);
  EXPECT_EQ(reg.sum("mem.used"), 7);

  const auto mk = reg.histogram("phase.makespan");
  reg.observe(mk, 1.0);
  reg.observe(mk, 3.0);
  const auto h = reg.hist("phase.makespan");
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 3.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(ObsMetrics, GetOrCreateIsIdempotentButKindChecked) {
  obs::MetricsRegistry reg(2);
  const auto a = reg.counter("x");
  EXPECT_EQ(reg.counter("x"), a);
  EXPECT_TRUE(reg.contains("x"));
  EXPECT_FALSE(reg.contains("y"));
  EXPECT_EQ(reg.kind("x"), obs::MetricKind::Counter);
  EXPECT_THROW((void)reg.gauge("x"), fit::Error);
  EXPECT_THROW((void)reg.histogram("x"), fit::Error);
}

TEST(ObsMetrics, ToJsonShape) {
  obs::MetricsRegistry reg(3);
  reg.add(reg.counter("c"), 1, 5);
  reg.observe(reg.histogram("h"), 2.0);

  auto with_ranks = reg.to_json(true);
  const auto* c = with_ranks.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->find("kind")->as_string(), "counter");
  EXPECT_EQ(c->find("sum")->as_number(), 5);
  ASSERT_NE(c->find("per_rank"), nullptr);
  EXPECT_EQ(c->find("per_rank")->size(), 3u);

  auto aggregate = reg.to_json(false);
  EXPECT_EQ(aggregate.find("c")->find("per_rank"), nullptr);
  const auto* h = aggregate.find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("kind")->as_string(), "histogram");
  EXPECT_EQ(h->find("count")->as_number(), 1);

  // The snapshot itself is valid JSON.
  EXPECT_NO_THROW((void)obs::json::parse(with_ranks.dump(2)));
}

// ---- BenchReport golden schema --------------------------------------

TEST(ObsBenchReport, ProducesSchemaValidDocument) {
  obs::BenchReport report("test_bench");
  TextTable t({"col a", "col b"});
  t.add_row({"1", "x"});
  t.add_row({"2", "y"});
  report.add_table("a table", t);
  report.add_scalar("answer", 42.0);
  report.add_note("a note");
  obs::MetricsRegistry reg(2);
  reg.add(reg.counter("c"), 0, 1);
  report.add_metrics("run", reg);

  auto doc = report.to_json();
  std::string why;
  EXPECT_TRUE(obs::validate_bench_json(doc, &why)) << why;

  EXPECT_EQ(doc.find("schema")->as_string(), "fourindex.bench/1");
  EXPECT_EQ(doc.find("bench")->as_string(), "test_bench");
  ASSERT_EQ(doc.find("tables")->size(), 1u);
  const auto& table = doc.find("tables")->at(0);
  EXPECT_EQ(table.find("columns")->size(), 2u);
  EXPECT_EQ(table.find("rows")->size(), 2u);
  EXPECT_EQ(table.find("rows")->at(1).at(0).as_string(), "2");
  EXPECT_EQ(doc.find("scalars")->find("answer")->as_number(), 42.0);
  ASSERT_NE(doc.find("metrics")->find("run"), nullptr);

  // Round-trips through the serialized form.
  std::string why2;
  EXPECT_TRUE(obs::validate_bench_json(obs::json::parse(doc.dump(2)),
                                       &why2))
      << why2;
}

TEST(ObsBenchReport, ValidatorRejectsBrokenDocuments) {
  obs::BenchReport report("b");
  auto doc = report.to_json();
  ASSERT_TRUE(obs::validate_bench_json(doc));

  auto wrong_schema = doc;
  wrong_schema["schema"] = "fourindex.bench/999";
  std::string why;
  EXPECT_FALSE(obs::validate_bench_json(wrong_schema, &why));
  EXPECT_NE(why.find("schema"), std::string::npos);

  auto wrong_scalar = doc;
  wrong_scalar["scalars"]["oops"] = "not a number";
  EXPECT_FALSE(obs::validate_bench_json(wrong_scalar, &why));

  auto ragged = doc;
  auto& tbl = ragged["tables"];
  obs::json::Value t = obs::json::Value::object();
  t["title"] = "ragged";
  t["columns"].push_back("only");
  obs::json::Value row = obs::json::Value::array();
  row.push_back("a");
  row.push_back("b");  // two cells, one column
  t["rows"].push_back(std::move(row));
  tbl.push_back(std::move(t));
  EXPECT_FALSE(obs::validate_bench_json(ragged, &why));

  EXPECT_FALSE(obs::validate_bench_json(obs::json::Value::array()));
}

// ---- Timeline + cluster trace export --------------------------------

TEST(ObsTimeline, ChromeJsonShape) {
  obs::Timeline tl;
  const auto work = tl.intern("work");
  const auto oom = tl.intern("oom");
  EXPECT_EQ(tl.intern("work"), work);  // interning is idempotent
  tl.add_span(work, 0, 0.0, 1.5);
  tl.add_span(work, 1, 0.5, 1.0);
  tl.add_instant(oom, 1, 0.75);

  auto doc = tl.to_chrome_json("proc");
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 1 process_name + 2 thread_name + 2 spans + 1 instant.
  EXPECT_EQ(events->size(), 6u);
  std::size_t spans = 0, instants = 0, meta = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const auto& ph = events->at(i).find("ph")->as_string();
    if (ph == "X") ++spans;
    if (ph == "i") ++instants;
    if (ph == "M") ++meta;
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(instants, 1u);
  EXPECT_EQ(meta, 3u);
}

TEST(ObsCluster, SimulateRunExportsValidTrace) {
  auto machine = runtime::system_a(4);
  auto p = core::make_problem(chem::paper_molecule("Hyperpolar"));
  core::ParOptions o;
  o.tile = 8;
  o.tile_l = 4;
  o.gather_result = false;

  runtime::Cluster cl(machine, runtime::ExecutionMode::Simulate);
  auto r = core::resilient_transform(p, cl, o);
  EXPECT_GT(r.stats.sim_time, 0);
  EXPECT_GT(cl.timeline().n_spans(), 0u);

  const std::string path =
      testing::TempDir() + "/test_obs_cluster.trace.json";
  ASSERT_TRUE(cl.write_chrome_trace(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  obs::json::Value doc;
  ASSERT_NO_THROW(doc = obs::json::parse(buf.str()));

  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  const std::size_t n_ranks = machine.n_ranks();
  std::vector<bool> named_track(n_ranks, false);
  std::map<std::size_t, std::vector<std::pair<double, double>>> spans;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const auto& e = events->at(i);
    const auto& ph = e.find("ph")->as_string();
    if (ph == "M" && e.find("name")->as_string() == "thread_name") {
      const auto tid = static_cast<std::size_t>(e.find("tid")->as_number());
      ASSERT_LT(tid, n_ranks);
      EXPECT_FALSE(named_track[tid]) << "duplicate track " << tid;
      named_track[tid] = true;
      EXPECT_EQ(e.find("args")->find("name")->as_string(),
                "rank " + std::to_string(tid));
    } else if (ph == "X") {
      const auto tid = static_cast<std::size_t>(e.find("tid")->as_number());
      ASSERT_LT(tid, n_ranks);
      spans[tid].emplace_back(e.find("ts")->as_number(),
                              e.find("dur")->as_number());
    }
  }

  // One named track per simulated rank.
  EXPECT_TRUE(std::all_of(named_track.begin(), named_track.end(),
                          [](bool b) { return b; }));
  // Every rank ran work, and no rank's spans overlap: phases are
  // barrier-separated, so sorted by start time each span must end
  // before the next begins (tolerance for microsecond rounding).
  EXPECT_EQ(spans.size(), n_ranks);
  for (auto& [tid, sp] : spans) {
    ASSERT_FALSE(sp.empty());
    std::sort(sp.begin(), sp.end());
    for (std::size_t i = 1; i < sp.size(); ++i) {
      EXPECT_LE(sp[i - 1].first + sp[i - 1].second, sp[i].first + 1e-6)
          << "overlapping spans on rank " << tid;
    }
  }
}

TEST(ObsCluster, RegistryBackedTotalsMatchParStats) {
  auto machine = runtime::system_a(4);
  auto p = core::make_problem(chem::paper_molecule("Hyperpolar"));
  core::ParOptions o;
  o.tile = 8;
  o.tile_l = 4;
  o.gather_result = false;

  runtime::Cluster cl(machine, runtime::ExecutionMode::Simulate);
  auto r = core::resilient_transform(p, cl, o);

  const auto totals = cl.totals();
  EXPECT_EQ(totals.remote_bytes, cl.metrics().sum("comm.remote_bytes"));
  EXPECT_EQ(totals.flops, cl.metrics().sum("compute.flops"));
  EXPECT_DOUBLE_EQ(r.stats.remote_bytes, totals.remote_bytes);
  EXPECT_GT(cl.metrics().sum("ga.gets") + cl.metrics().sum("ga.puts") +
                cl.metrics().sum("ga.accs"),
            0);
  EXPECT_GT(cl.metrics().hist("phase.makespan_s").count(), 0u);
}

}  // namespace
