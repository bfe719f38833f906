#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

#include "explain/lift.hpp"
#include "serve/protocol.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace perfbench {

double MsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now());
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

int TailPercentile(std::size_t count) {
  if (count <= 10) return 0;
  return static_cast<int>(
      std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(count))));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string Question::Key() const {
  return network + "|" + request.selection.ToString() + "|" +
         ns::explain::LiftModeName(request.mode) + "|" +
         ns::util::Join(request.requirements, ",");
}

std::string AnswerDigest(const std::string& report,
                         const std::string& subspec_text) {
  return ns::serve::Digest64(report + "\n-------- lifted DSL --------\n" +
                             subspec_text);
}

namespace {

/// The golden document section for one answer, as tests/golden_test.cpp
/// renders it (the network name is the scenario name).
std::string GoldenSection(const Question& question, const std::string& report,
                          const std::string& subspec_text) {
  return "======== " + question.network + " · " +
         question.request.selection.ToString() + " · " +
         ns::explain::LiftModeName(question.request.mode) + " ========\n" +
         report + "-------- lifted DSL --------\n" + subspec_text + "\n";
}

std::string MustRead(const std::string& path) {
  auto text = ns::util::ReadFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "perfbench: cannot read %s: %s\n", path.c_str(),
                 text.error().ToString().c_str());
    std::exit(2);
  }
  return std::move(text).value();
}

/// Splits a golden document at its "======== " header lines.
void SplitGolden(const std::string& doc,
                 std::map<std::string, std::string>& out) {
  const std::string marker = "======== ";
  std::vector<std::size_t> starts;
  for (std::size_t pos = 0; pos < doc.size();) {
    if (doc.compare(pos, marker.size(), marker) == 0) starts.push_back(pos);
    const std::size_t newline = doc.find('\n', pos);
    if (newline == std::string::npos) break;
    pos = newline + 1;
  }
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const std::size_t end = i + 1 < starts.size() ? starts[i + 1] : doc.size();
    const std::string section = doc.substr(starts[i], end - starts[i]);
    out[section.substr(0, section.find('\n'))] = section;
  }
}

}  // namespace

Expected::Expected(const std::string& table_path,
                   const std::string& golden_dir) {
  std::istringstream table(MustRead(table_path));
  std::string line;
  while (std::getline(table, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.rfind('\t');
    if (tab == std::string::npos) continue;
    digests_[line.substr(0, tab)] = line.substr(tab + 1);
  }
  for (const char* file : {"scenario1_paper.explain.txt",
                           "scenario2.explain.txt", "scenario3.explain.txt"}) {
    SplitGolden(MustRead(golden_dir + "/" + file), golden_);
  }
}

bool Expected::Matches(const Question& question, const std::string& report,
                       const std::string& subspec_text) const {
  const std::string section = GoldenSection(question, report, subspec_text);
  const auto golden = golden_.find(section.substr(0, section.find('\n')));
  if (golden != golden_.end() && question.request.requirements.empty()) {
    return golden->second == section;
  }
  const auto digest = digests_.find(question.Key());
  return digest != digests_.end() &&
         digest->second == AnswerDigest(report, subspec_text);
}

}  // namespace perfbench
