// nsbench: runs one benchmark workload and prints its result as one JSON
// line on stdout (see perfbench/run.py, which builds and drives it).
//
//   nsbench --workload paper-cold|family-lift|serve-mix --seed N
//           --seconds S --trace 0|1 [--root DIR] [--expected FILE]
//   nsbench --record FILE [--root DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "explain/arena.hpp"
#include "trace.hpp"
#include "util/file.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace ex = ns::explain;

int Usage() {
  std::fprintf(stderr,
               "usage: nsbench --workload W --seed N --seconds S --trace 0|1 "
               "[--root DIR] [--expected FILE]\n"
               "       nsbench --record FILE [--root DIR]\n");
  return 2;
}

void PrintResult(const RunResult& result) {
  std::string metrics;
  for (const Metric& metric : result.metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + metric.name + "\": {\"value\": " + number +
               ", \"unit\": \"" + metric.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct && result.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int RecordExpected(const Args& args, const std::string& out_path) {
  std::map<std::string, std::string> table;
  // The paper scenarios: every selection over the whole spec and each
  // single requirement, in both modes (paper-cold and serve-mix draw from
  // these), through AnswerRequest.
  for (const Network& network : PaperNetworks(args.root)) {
    std::vector<Question> questions;
    for (const ex::BatchRequest& request : ProjectedRequests(network)) {
      for (ex::LiftMode mode :
           {ex::LiftMode::kExact, ex::LiftMode::kFaithful}) {
        Question question{network.name, request};
        question.request.mode = mode;
        questions.push_back(std::move(question));
      }
    }
    std::vector<ex::BatchRequest> requests;
    for (const Question& question : questions) {
      requests.push_back(question.request);
    }
    ex::BatchOptions options;
    options.num_threads = 4;
    options.registry = std::make_shared<ex::ArenaRegistry>();
    const ex::BatchOutcome outcome = ex::BatchExplain(
        network.topo, network.spec, network.solved, requests, options);
    for (std::size_t i = 0; i < questions.size(); ++i) {
      const auto& result = outcome.items[i].result;
      if (!result.ok()) {
        std::fprintf(stderr, "nsbench: %s: %s\n", questions[i].Key().c_str(),
                     result.error().ToString().c_str());
        return 1;
      }
      table[questions[i].Key()] =
          AnswerDigest(result.value().report, result.value().subspec_text);
    }
  }
  // family-lift: the hop-bounded fresh path (AnswerRequest takes no hop
  // bound).
  std::vector<FamilyNetwork> families = FamilyNetworks();
  std::vector<std::pair<const FamilyNetwork*, const Question*>> items;
  for (const FamilyNetwork& family : families) {
    for (const Question& question : family.questions) {
      items.emplace_back(&family, &question);
    }
  }
  std::vector<Answer> answers(items.size());
  ParallelFor(items.size(), 4, [&](std::size_t i) {
    answers[i] = AnswerFresh(nullptr, -1, items[i].first->network,
                             *items[i].second, items[i].first->max_hops);
  });
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!answers[i].ok) {
      std::fprintf(stderr, "nsbench: %s: %s\n", items[i].second->Key().c_str(),
                   answers[i].error.c_str());
      return 1;
    }
    table[items[i].second->Key()] =
        AnswerDigest(answers[i].report, answers[i].subspec_text);
  }

  std::string text =
      "# Expected answers: question key <TAB> digest of report + lifted DSL.\n"
      "# Regenerate with: nsbench --record <this file> --root <checkout>\n";
  for (const auto& [key, digest] : table) text += key + "\t" + digest + "\n";
  if (!ns::util::WriteFile(out_path, text).ok()) return 1;
  std::fprintf(stderr, "nsbench: recorded %zu answers\n", table.size());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string record;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--root") {
      args.root = value;
    } else if (flag == "--expected") {
      args.expected = value;
    } else if (flag == "--record") {
      record = value;
    } else {
      return Usage();
    }
  }
  if (!record.empty()) return RecordExpected(args, record);
  if (args.expected.empty()) {
    args.expected = args.root + "/perfbench/expected_answers.tsv";
  }
  if (!(args.seconds > 0)) return Usage();

  const Expected expected(args.expected, args.root + "/tests/golden");
  RunResult result;
  if (args.workload == "paper-cold") {
    result = RunPaperCold(args, expected);
  } else if (args.workload == "family-lift") {
    result = RunFamilyLift(args, expected);
  } else if (args.workload == "serve-mix") {
    result = RunServeMix(args, expected);
  } else {
    return Usage();
  }
  PrintResult(result);
  return 0;
}
