// A seeded, time-boxed mutation fuzzer of the transform service. It
// takes the request lines documented in README.md and DESIGN.md,
// mutates their numeric fields (n, nodes, tile, tile_l, batch,
// irrep_order, ticket), and sends each one plan_only through
// Server::handle_line. Every reply must be one JSON object, no
// exception may escape, and each request must come back within a
// host-time budget: a valid but huge request is bounded or rejected,
// never a stalled or dead server.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "serve/cost_oracle.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace fit;

// Every line of the two documents that is a transform request object.
std::vector<obs::json::Value> documented_requests() {
  std::vector<obs::json::Value> corpus;
  for (const char* doc : {"/README.md", "/DESIGN.md"}) {
    std::ifstream in(std::string(FOURINDEX_SOURCE_DIR) + doc);
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("{\"", 0) != 0) continue;
      try {
        obs::json::Value v = obs::json::parse(line);
        if (v.is_object() && v.find("molecule")) corpus.push_back(v);
      } catch (const Error&) {
        // Not a request line (a JSON fragment in prose).
      }
    }
  }
  return corpus;
}

// A value for a numeric field: small and boundary sizes, powers of two
// up to past 2^64, and values no size field accepts.
double mutated_number(SplitMix64& g) {
  switch (g.next_below(6)) {
    case 0: return static_cast<double>(g.next_below(5));
    case 1: return static_cast<double>(1 + g.next_below(64));
    case 2: return std::ldexp(1.0, static_cast<int>(g.next_below(70)));
    case 3: return static_cast<double>(1 + g.next_below(5000));
    case 4: {
      const double odd[] = {-1, 2.5, 1e15, 1e300, -1e300, 0x1p64, 0x1p53 + 2};
      return odd[g.next_below(std::size(odd))];
    }
    default: return static_cast<double>(1 + g.next_below(300));
  }
}

TEST(ServeFuzz, MutatedDocumentedRequestsAlwaysGetOneTimelyReply) {
  const std::vector<obs::json::Value> corpus = documented_requests();
  ASSERT_GE(corpus.size(), 3u) << "README/DESIGN carry too few request lines";
  const char* const fields[] = {"n",     "nodes",       "tile",  "tile_l",
                                "batch", "irrep_order", "ticket"};
  // Generous enough for the sanitizer builds; the defect this catches
  // (a grid walk or allocation that grows with the request) takes
  // seconds to minutes.
  constexpr double kBudgetMs = 3000;
  constexpr double kBoxSeconds = 20;
  constexpr int kIterations = 400;

  serve::Server server(serve::TransformService{serve::CostOracle{}},
                       testing::TempDir() + "serve-fuzz.sock." +
                           std::to_string(::getpid()));
  SplitMix64 g(20261020);
  const auto start = std::chrono::steady_clock::now();
  auto seconds_since = [](auto t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  int sent = 0;
  double worst_ms = 0;
  std::string worst_line;
  for (; sent < kIterations && seconds_since(start) < kBoxSeconds; ++sent) {
    obs::json::Value req = corpus[g.next_below(corpus.size())];
    const std::size_t mutations = 1 + g.next_below(3);
    for (std::size_t k = 0; k < mutations; ++k)
      req[fields[g.next_below(std::size(fields))]] = mutated_number(g);
    req["plan_only"] = true;
    // Now and then a release of a mutated ticket instead.
    const std::string line =
        g.next_below(8) == 0
            ? R"({"verb":"release","ticket":)" +
                  obs::json::Value(mutated_number(g)).dump() + "}"
            : req.dump();

    const auto t0 = std::chrono::steady_clock::now();
    std::string reply;
    try {
      reply = server.handle_line(line);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "exception escaped: " << e.what() << "\n" << line;
      continue;
    }
    const double ms = 1e3 * seconds_since(t0);
    if (ms > worst_ms) {
      worst_ms = ms;
      worst_line = line;
    }
    EXPECT_LT(ms, kBudgetMs) << line;
    EXPECT_EQ(reply.find('\n'), std::string::npos) << line;
    try {
      const obs::json::Value rsp = obs::json::parse(reply);
      EXPECT_TRUE(rsp.is_object()) << line << "\n" << reply;
      EXPECT_NE(rsp.find("outcome"), nullptr) << line << "\n" << reply;
    } catch (const Error& e) {
      ADD_FAILURE() << "reply is not JSON: " << e.what() << "\n" << reply;
    }
  }
  EXPECT_GE(sent, 50) << "the time box ended the fuzz run too early";
  // The server still answers after the whole run.
  const obs::json::Value stats =
      obs::json::parse(server.handle_line(R"({"verb":"stats"})"));
  ASSERT_NE(stats.find("serve.requests"), nullptr);
  EXPECT_GE(stats.find("serve.requests")->find("sum")->as_number(), 1.0);
  std::cout << "serve fuzz: " << sent << " requests, slowest " << worst_ms
            << " ms: " << worst_line << "\n";
}

}  // namespace
