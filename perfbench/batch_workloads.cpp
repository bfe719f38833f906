// paper-cold and family-lift: offline callers, no server.
#include <algorithm>
#include <cstdio>

#include "explain/arena.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ex = ns::explain;

namespace {

// Set-up takes milliseconds (paper-cold: a fraction of one); the median
// over repeats is steadier than one sample.
constexpr int kPaperSetupRepeats = 31;
constexpr int kFamilySetupRepeats = 9;
constexpr int kPaperWorkers = 4;

/// The end-to-end metrics of an offline workload.
void AddBatchMetrics(const std::vector<double>& answer_ms,
                     std::size_t questions_per_round, double busy_ms,
                     const std::vector<double>& setup_s, double peak_rss_mb,
                     RunResult& result) {
  result.Add("answer_ms_p50", Median(answer_ms), "ms");
  result.Add("answer_ms_tail",
             Percentile(answer_ms, TailPercentile(questions_per_round)), "ms");
  result.Add("answers_per_s",
             static_cast<double>(answer_ms.size()) / (busy_ms / 1000.0),
             "1/s");
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("peak_rss_mb", peak_rss_mb, "MB");
}

void Report(const char* what, const Question& question,
            const std::string& detail) {
  std::fprintf(stderr, "perfbench: %s %s: %s\n", what,
               question.Key().c_str(), detail.c_str());
}

/// Checks one answer and counts it.
void CheckAnswer(const Expected& expected, const Question& question,
                 bool ok, const std::string& error, const std::string& report,
                 const std::string& subspec_text, RunResult& result) {
  if (!ok) {
    Report("error", question, error);
    result.Count(false);
    return;
  }
  const bool matches = expected.Matches(question, report, subspec_text);
  if (!matches) Report("wrong answer", question, "differs from expected");
  result.Count(matches);
}

struct PaperInputs {
  std::vector<Network> networks;
  std::vector<std::vector<Question>> questions;  ///< per network
  std::size_t total = 0;
};

PaperInputs SetUpPaper(const Args& args) {
  PaperInputs inputs;
  inputs.networks = PaperNetworks(args.root);
  const std::vector<Question> all = PaperQuestions(inputs.networks, args.seed);
  inputs.total = all.size();
  for (const Network& network : inputs.networks) {
    inputs.questions.emplace_back();
    for (const Question& question : all) {
      if (question.network == network.name) {
        inputs.questions.back().push_back(question);
      }
    }
  }
  return inputs;
}

/// One untraced survey round: BatchExplain per scenario, each with a
/// fresh registry. Appends per-answer walls; returns the batches' wall.
double PaperRound(const PaperInputs& inputs, const Expected& expected,
                  std::vector<double>& answer_ms, RunResult& result) {
  double wall_ms = 0;
  for (std::size_t n = 0; n < inputs.networks.size(); ++n) {
    const Network& network = inputs.networks[n];
    std::vector<ex::BatchRequest> requests;
    for (const Question& question : inputs.questions[n]) {
      requests.push_back(question.request);
    }
    ex::BatchOptions options;
    options.num_threads = kPaperWorkers;
    options.registry = std::make_shared<ex::ArenaRegistry>();
    const ex::BatchOutcome outcome = ex::BatchExplain(
        network.topo, network.spec, network.solved, requests, options);
    wall_ms += outcome.wall_ms;
    for (std::size_t i = 0; i < outcome.items.size(); ++i) {
      const ex::BatchItem& item = outcome.items[i];
      const bool ok = item.result.ok();
      CheckAnswer(expected, inputs.questions[n][i], ok,
                  ok ? "" : item.result.error().ToString(),
                  ok ? item.result.value().report : "",
                  ok ? item.result.value().subspec_text : "", result);
      answer_ms.push_back(item.wall_ms);
    }
  }
  return wall_ms;
}

}  // namespace

RunResult RunPaperCold(const Args& args, const Expected& expected) {
  RunResult result;
  std::vector<double> setup_s;
  PaperInputs inputs;
  for (int i = 0; i < kPaperSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    inputs = SetUpPaper(args);
    setup_s.push_back(MsSince(start) / 1000.0);
  }

  std::vector<double> answer_ms;
  if (!args.trace) {
    double busy_ms = 0;
    const Clock::time_point start = Clock::now();
    do {
      busy_ms += PaperRound(inputs, expected, answer_ms, result);
    } while (MsSince(start) < args.seconds * 1000.0);
    AddBatchMetrics(answer_ms, inputs.total, busy_ms, setup_s, PeakRssMb(),
                    result);
    return result;
  }

  // Traced run. First the untraced comparator for the tracing overhead:
  // scenarios 1 and 2 only (a quarter of the questions, which keeps the
  // traced run short). They come first in the traced pass too, so their
  // walls line up with question ids 0, 1, ...
  PaperInputs comparator = inputs;
  comparator.networks.resize(2);
  comparator.questions.resize(2);
  PaperRound(comparator, expected, answer_ms, result);

  // Traced pass: the same questions on the arena path, four workers, one
  // registry per scenario, each question its own arena key.
  Tracer tracer;
  LayerInputs layers;
  std::vector<Question> questions;
  std::vector<const Network*> network_of;
  for (std::size_t n = 0; n < inputs.networks.size(); ++n) {
    for (const Question& question : inputs.questions[n]) {
      questions.push_back(question);
      network_of.push_back(&inputs.networks[n]);
    }
  }
  std::vector<std::shared_ptr<ex::ArenaRegistry>> registries;
  for (std::size_t n = 0; n < inputs.networks.size(); ++n) {
    registries.push_back(std::make_shared<ex::ArenaRegistry>());
  }
  auto registry_of = [&](const Network* network) {
    return registries[static_cast<std::size_t>(network -
                                               inputs.networks.data())];
  };
  const std::vector<std::vector<std::size_t>> groups =
      GroupByArenaKey(questions);
  layers.answers.resize(questions.size());
  ParallelFor(groups.size(), kPaperWorkers, [&](std::size_t g) {
    const Network* network = network_of[groups[g].front()];
    AnswerArenaGroup(tracer, *network, questions, groups[g],
                     registry_of(network), layers.answers);
  });
  for (std::size_t i = 0; i < questions.size(); ++i) {
    const Answer& answer = layers.answers[i];
    CheckAnswer(expected, questions[i], answer.ok, answer.error,
                answer.report, answer.subspec_text, result);
  }
  for (const auto& registry : registries) {
    const ex::ArenaRegistryStats stats = registry->stats();
    layers.arena.builds += stats.builds;
    layers.arena.reuses += stats.reuses;
  }
  layers.spans = tracer.Spans();
  layers.untraced_ms = answer_ms;
  if (!AddLayerMetrics(layers, nullptr, result)) result.correct = false;
  return result;
}

RunResult RunFamilyLift(const Args& args, const Expected& expected) {
  RunResult result;
  std::vector<double> setup_s;
  std::vector<FamilyNetwork> families;
  for (int i = 0; i < kFamilySetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    families = FamilyNetworks();
    setup_s.push_back(MsSince(start) / 1000.0);
  }
  // The seed orders the questions (one caller, so order is all it can
  // change without changing the networks).
  struct Item {
    const FamilyNetwork* family;
    const Question* question;
  };
  std::vector<Item> items;
  for (const FamilyNetwork& family : families) {
    for (const Question& question : family.questions) {
      items.push_back(Item{&family, &question});
    }
  }
  SeededRng rng(args.seed);
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }

  if (!args.trace) {
    std::vector<double> answer_ms;
    double busy_ms = 0;
    const Clock::time_point start = Clock::now();
    do {
      double round_ms = 0;
      for (const Item& item : items) {
        const Answer answer =
            AnswerFresh(nullptr, -1, item.family->network, *item.question,
                        item.family->max_hops);
        CheckAnswer(expected, *item.question, answer.ok, answer.error,
                    answer.report, answer.subspec_text, result);
        answer_ms.push_back(answer.wall_ms);
        round_ms += answer.wall_ms;
      }
      std::fprintf(stderr,
                   "perfbench: family-lift pass: %zu answers in %.0f ms\n",
                   items.size(), round_ms);
      busy_ms += round_ms;
    } while (MsSince(start) < args.seconds * 1000.0);
    AddBatchMetrics(answer_ms, items.size(), busy_ms, setup_s, PeakRssMb(),
                    result);
    return result;
  }

  // Traced run: an untraced pass first, the comparator for the tracing
  // overhead.
  LayerInputs layers;
  for (const Item& item : items) {
    const Answer answer = AnswerFresh(nullptr, -1, item.family->network,
                                      *item.question, item.family->max_hops);
    CheckAnswer(expected, *item.question, answer.ok, answer.error,
                answer.report, answer.subspec_text, result);
    layers.untraced_ms.push_back(answer.wall_ms);
  }
  Tracer tracer;
  for (std::size_t i = 0; i < items.size(); ++i) {
    Answer answer = AnswerFresh(&tracer, static_cast<int>(i),
                                items[i].family->network, *items[i].question,
                                items[i].family->max_hops);
    CheckAnswer(expected, *items[i].question, answer.ok, answer.error,
                answer.report, answer.subspec_text, result);
    layers.answers.push_back(std::move(answer));
  }
  layers.spans = tracer.Spans();
  if (!AddLayerMetrics(layers, nullptr, result)) result.correct = false;
  return result;
}

}  // namespace perfbench
