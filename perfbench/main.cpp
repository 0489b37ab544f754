// perfbench_harness --workload W --seed N --seconds S --scratch DIR
//                   [--costs PATH] [--setup-only] [--trace]
//
// One harness process; run.py drives it. Prints one JSON document as
// the last line of standard output and exits 0, or exits 2 with the
// reason on standard error.
#include <cstdint>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "util/parse.hpp"

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        const auto v = fit::util::parse_int(value());
        if (!v || *v < 0) throw std::runtime_error("bad --seed");
        opt.seed = static_cast<std::uint64_t>(*v);
      } else if (arg == "--seconds") {
        const auto v = fit::util::parse_double(value());
        if (!v || !(*v > 0)) throw std::runtime_error("bad --seconds");
        opt.seconds = *v;
      } else if (arg == "--scratch") {
        opt.scratch = value();
      } else if (arg == "--costs") {
        opt.costs = value();
      } else if (arg == "--setup-only") {
        opt.setup_only = true;
      } else if (arg == "--trace") {
        opt.traced = true;
      } else {
        throw std::runtime_error("unknown argument " + arg);
      }
    }
    if (opt.workload.empty() || opt.scratch.empty())
      throw std::runtime_error("--workload and --scratch are required");
    return perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 2;
  }
}
