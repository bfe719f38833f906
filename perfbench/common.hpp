// Shared pieces of the benchmark binary: clocks and percentiles, the
// seeded input draws, the question/answer identity used by the answer
// check, and the result record every workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "config/device.hpp"
#include "explain/batch.hpp"
#include "net/topology.hpp"
#include "spec/ast.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start);
double MsBetween(Clock::time_point from, Clock::time_point to);

/// Linear-interpolation percentile (p in [0,100]); 0 for an empty set.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The highest whole percentile that leaves at least ten samples beyond
/// it at `count` samples (the tail each workload reports).
int TailPercentile(std::size_t count);

/// Peak resident set (VmHWM) of this process, in MiB.
double PeakRssMb();

/// SplitMix64 step: the benchmark's only source of seeded choices, so a
/// seed draws the same inputs on every platform.
std::uint64_t Mix(std::uint64_t x);

class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(Mix(seed ^ 0x5eedULL)) {}
  std::uint64_t Next() { return state_ = Mix(state_); }
  std::size_t Below(std::size_t bound) { return Next() % bound; }

 private:
  std::uint64_t state_;
};

/// One question about one loaded network: the request plus the name of
/// the scenario or family instance it is asked about.
struct Question {
  std::string network;  ///< "S1".."S3", or a family label like "wan(16)@3"
  ns::explain::BatchRequest request;

  /// Identity of the answer in the expected-answer table. The solver
  /// backend is left out: answers are backend-independent.
  std::string Key() const;
};

/// A solved network the questions are asked about.
struct Network {
  std::string name;
  ns::net::Topology topo;
  ns::spec::Spec spec;
  ns::config::NetworkConfig solved;
};

/// Digest of one rendered answer (report + lifted DSL block).
std::string AnswerDigest(const std::string& report,
                         const std::string& subspec_text);

/// The answer check: byte-exact golden sections for the paper's
/// router-level answers, and a digest table for every other answer.
class Expected {
 public:
  /// Reads `table_path` ("key<TAB>digest" lines) and the golden
  /// documents under `golden_dir`. Exits the process on unreadable input.
  Expected(const std::string& table_path, const std::string& golden_dir);

  /// True iff the answer matches its golden section (router-level paper
  /// questions in the golden mode) or its recorded digest. A question
  /// with no expectation at all fails.
  bool Matches(const Question& question, const std::string& report,
               const std::string& subspec_text) const;

 private:
  std::map<std::string, std::string> digests_;
  std::map<std::string, std::string> golden_;  ///< header line -> section
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation; a failed one also clears `correct`.
  void Count(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";  ///< repository checkout (inputs, tables)
  std::string expected;    ///< expected-answer table; default under root
};

}  // namespace perfbench
