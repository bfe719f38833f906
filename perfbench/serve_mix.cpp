// serve-mix: an in-process epoll serve::Server driven open-loop over its
// socket.
//
// Traffic, on a fixed schedule over the run's window, split into two
// equal epochs: scenario 3, then a `load` of scenario 2, which resets the
// server's arena registry and switches the answer cache to the other
// scenario's key space:
//   - hits: repeats from a hot set that fits the LRU, warmed for both
//     scenarios before the window;
//   - cold: a trickle of never-repeated questions (a fixed sample, in
//     seeded lift modes);
//   - warm: re-asks of each cold selection in the other lift mode and
//     with another solver backend (the backend is part of the cache key,
//     answers are backend-independent), which miss the cache but find the
//     question's arena built.
// Connections: 0 carries the loads and hits; 1 carries hits, warm
// re-asks and a third of the cold questions (a slow computed answer delays
// the hits queued behind it); 2 and 3 carry the other cold questions.
// Requests are timed from their scheduled send.
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <thread>

#include "explain/arena.hpp"
#include "net/topo_text.hpp"
#include "config/parse.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "spec/parser.hpp"
#include "trace.hpp"
#include "util/file.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ex = ns::explain;
using ns::util::Json;

namespace {

constexpr int kWorkers = 4;
constexpr int kSetupRepeats = 15;
constexpr std::size_t kHotSet = 6;
constexpr double kHitsPerSecond = 70;
constexpr int kColdPerEpoch = 8;
constexpr int kEpochs = 2;
constexpr int kConnections = 4;

struct ScenarioText {
  std::string name;
  std::string topo;
  std::string spec;
  std::string config;
  Network network;  ///< parsed from the same texts the server parses
};

ScenarioText MakeScenarioText(const Network& paper, const std::string& root,
                              int index) {
  ScenarioText text;
  text.name = paper.name;
  text.topo = ns::net::ToText(paper.topo);
  text.spec = paper.spec.ToString();
  auto config = ns::util::ReadFile(root + "/tests/golden/scenario" +
                                   std::to_string(index) + "_solved.cfg");
  text.config = config.ok() ? config.value() : "";
  auto topo = ns::net::ParseTopology(text.topo);
  auto spec = ns::spec::ParseSpec(text.spec);
  auto solved = ns::config::ParseNetworkConfig(text.config);
  if (!topo.ok() || !spec.ok() || !solved.ok()) {
    std::fprintf(stderr, "perfbench: scenario %s does not round-trip\n",
                 paper.name.c_str());
    std::exit(2);
  }
  text.network = Network{paper.name, std::move(topo).value(),
                         std::move(spec).value(), std::move(solved).value()};
  return text;
}

Json LoadRequest(const ScenarioText& scenario) {
  Json request = Json::MakeObject();
  request.Set("cmd", "load");
  request.Set("topo", scenario.topo);
  request.Set("spec", scenario.spec);
  request.Set("config", scenario.config);
  return request;
}

Json ExplainRequest(const ex::BatchRequest& request) {
  Json json = Json::MakeObject();
  json.Set("cmd", "explain");
  json.Set("router", request.selection.router);
  if (request.selection.route_map) {
    json.Set("map", *request.selection.route_map);
  }
  if (request.selection.seq) json.Set("seq", *request.selection.seq);
  json.Set("mode", ex::LiftModeName(request.mode));
  if (!request.requirements.empty()) {
    Json::Array names;
    for (const std::string& name : request.requirements) names.push_back(name);
    json.Set("requirements", Json(std::move(names)));
  }
  json.Set("solver", ns::smt::SolverBackendName(request.solver.backend));
  return json;
}

enum class Kind { kLoad, kHit, kCold, kWarm };

struct Entry {
  double at_ms = 0;  ///< scheduled send, from the window start
  Kind kind = Kind::kHit;
  int connection = 0;
  std::size_t scenario = 0;  ///< kLoad: scenario installed
  ex::BatchRequest request;  ///< explain entries
  std::string line;
  // Filled in by the connection threads.
  Clock::time_point sent;
  Clock::time_point received;
  bool answered = false;
  Json response;
};

ex::LiftMode Other(ex::LiftMode mode) {
  return mode == ex::LiftMode::kExact ? ex::LiftMode::kFaithful
                                      : ex::LiftMode::kExact;
}

/// Sends one connection's entries on schedule and reads its responses in
/// order (the server answers each connection in request order).
void DriveConnection(ns::serve::Client& client, std::vector<Entry*> entries,
                     Clock::time_point window_start) {
  std::thread reader([&client, &entries] {
    for (Entry* entry : entries) {
      auto response = client.ReadResponse();
      if (!response.ok()) return;  // transport failure: rest unanswered
      entry->received = Clock::now();
      entry->response = std::move(response).value();
      entry->answered = true;
    }
  });
  for (Entry* entry : entries) {
    std::this_thread::sleep_until(
        window_start + std::chrono::microseconds(
                           static_cast<std::int64_t>(entry->at_ms * 1000)));
    entry->sent = Clock::now();
    if (!client.SendLine(entry->line).ok()) break;
  }
  reader.join();
}

std::string ErrorCode(const Json& response) {
  const Json* error = response.Find("error");
  if (error == nullptr) return "";
  const Json* code = error->Find("code");
  return code != nullptr && code->IsString() ? code->AsString() : "";
}

/// One answer the server gave, with the scenarios that could have
/// answered it.
struct Served {
  std::set<std::size_t> scenarios;
  ex::BatchRequest request;
  Json response;
  const Entry* entry = nullptr;  ///< null for the warm-up asks
  long reference = -1;           ///< the reference answer it matched
};

bool IsOk(const Json& response) {
  const Json* ok = response.Find("ok");
  return ok != nullptr && ok->IsBool() && ok->AsBool();
}

}  // namespace

RunResult RunServeMix(const Args& args, const Expected& expected) {
  RunResult result;
  const std::vector<Network> paper = PaperNetworks(args.root);
  std::vector<ScenarioText> scenarios;
  std::unique_ptr<ns::serve::Server> server;
  std::vector<double> setup_s;
  ns::serve::ServerOptions options;
  options.threads = kWorkers;
  options.frontend = ns::serve::Frontend::kEpoll;
  options.lift_threads = 1;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server != nullptr) server->Shutdown();
    const Clock::time_point start = Clock::now();
    scenarios = {MakeScenarioText(paper[2], args.root, 3),
                 MakeScenarioText(paper[1], args.root, 2)};
    server = std::make_unique<ns::serve::Server>(options);
    if (!server->Start().ok()) {
      std::fprintf(stderr, "perfbench: server did not start\n");
      std::exit(2);
    }
    auto control = ns::serve::Client::Connect(server->port());
    auto loaded = control.ok() ? control.value().Call(LoadRequest(scenarios[0]))
                               : ns::util::Result<Json>(control.error());
    if (!loaded.ok() || !IsOk(loaded.value())) {
      std::fprintf(stderr, "perfbench: first load failed\n");
      std::exit(2);
    }
    setup_s.push_back(MsSince(start) / 1000.0);
  }

  // Inputs. The cold questions are a fixed systematic sample of each
  // scenario's questions: their cost spans 0.1-3 s, so drawing them per
  // seed would make the run-to-run spread the spread of the draw. The
  // seed draws the lift modes, the hot set and the hit sequence.
  SeededRng rng(args.seed);
  std::vector<std::vector<ex::BatchRequest>> colds;
  std::set<std::string> cold_keys;
  for (const ScenarioText& scenario : scenarios) {
    const std::vector<ex::BatchRequest> pool =
        ProjectedRequests(scenario.network);
    colds.emplace_back();
    for (int j = 0; j < kColdPerEpoch; ++j) {
      colds.back().push_back(pool[(2 * j + 1) * pool.size() /
                                  (2 * kColdPerEpoch)]);
      cold_keys.insert(ArenaKey(colds.back().back()));
    }
  }
  std::vector<ex::BatchRequest> hot;
  {
    // Hot questions are valid in both scenarios, so a hit in flight
    // across a load is well defined.
    std::set<std::string> first;
    for (const auto& request : ProjectedRequests(scenarios[0].network)) {
      first.insert(ArenaKey(request));
    }
    std::vector<ex::BatchRequest> common;
    for (const auto& request : ProjectedRequests(scenarios[1].network)) {
      const std::string key = ArenaKey(request);
      if (first.count(key) != 0 && cold_keys.count(key) == 0) {
        common.push_back(request);
      }
    }
    for (std::size_t i = 0; i < kHotSet; ++i) {
      const std::size_t pick = i + rng.Below(common.size() - i);
      std::swap(common[i], common[pick]);
      common[i].mode = rng.Next() & 1 ? ex::LiftMode::kExact
                                      : ex::LiftMode::kFaithful;
      hot.push_back(common[i]);
    }
  }

  // The schedule.
  const double window_ms = args.seconds * 1000.0;
  const double epoch_ms = window_ms / kEpochs;
  const std::size_t epoch_scenario[kEpochs] = {0, 1};
  std::vector<Entry> entries;
  for (int epoch = 1; epoch < kEpochs; ++epoch) {
    Entry load;
    load.at_ms = epoch * epoch_ms;
    load.kind = Kind::kLoad;
    load.connection = 0;
    load.scenario = epoch_scenario[epoch];
    load.line = LoadRequest(scenarios[load.scenario]).Dump(0);
    entries.push_back(std::move(load));
  }
  const auto hits = static_cast<std::size_t>(window_ms / 1000.0 * kHitsPerSecond);
  for (std::size_t i = 0; i < hits; ++i) {
    Entry entry;
    entry.at_ms = (static_cast<double>(i) + 0.5) * 1000.0 / kHitsPerSecond;
    entry.kind = Kind::kHit;
    entry.connection = static_cast<int>(i % 2);
    entry.request = hot[rng.Below(hot.size())];
    entries.push_back(std::move(entry));
  }
  // Cold questions every 0.053 epochs over the first 0.41 of each epoch,
  // about half of the workers' capacity while they run. Their re-asks come
  // in one stream from 0.72 epochs on, once the cold answers have drained,
  // so a warm answer neither waits for a worker nor shares the CPUs with
  // cold ones; all land before the next load.
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const std::size_t scenario = epoch_scenario[epoch];
    for (int j = 0; j < kColdPerEpoch; ++j) {
      const double at = epoch_ms * (epoch + 0.04 + 0.053 * j);
      ex::BatchRequest cold = colds[scenario][j];
      cold.mode = rng.Next() & 1 ? ex::LiftMode::kExact
                                 : ex::LiftMode::kFaithful;
      Entry entry;
      entry.at_ms = at;
      entry.kind = Kind::kCold;
      entry.connection = 1 + j % 3;
      entry.request = cold;
      entries.push_back(entry);
      const std::pair<ex::LiftMode, ns::smt::SolverBackend> reasks[] = {
          {Other(cold.mode), cold.solver.backend},
          {cold.mode, ns::smt::SolverBackend::kIncrementalZ3},
          {Other(cold.mode), ns::smt::SolverBackend::kIncrementalZ3}};
      for (int r = 0; r < 3; ++r) {
        Entry warm;
        warm.at_ms = epoch_ms * (epoch + 0.72 + 0.0085 * (3 * j + r));
        warm.kind = Kind::kWarm;
        warm.connection = 1;
        warm.request = cold;
        warm.request.mode = reasks[r].first;
        warm.request.solver.backend = reasks[r].second;
        entries.push_back(std::move(warm));
      }
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.at_ms < b.at_ms; });
  std::size_t computed_scheduled = 0;
  for (Entry& entry : entries) {
    if (entry.kind != Kind::kLoad) {
      entry.line = ExplainRequest(entry.request).Dump(0);
    }
    if (entry.kind == Kind::kCold || entry.kind == Kind::kWarm) {
      ++computed_scheduled;
    }
  }

  std::vector<Served> served;
  std::vector<ns::serve::Client> clients;
  for (int c = 0; c < kConnections; ++c) {
    auto client = ns::serve::Client::Connect(server->port());
    if (!client.ok()) {
      std::fprintf(stderr, "perfbench: connect failed\n");
      std::exit(2);
    }
    clients.push_back(std::move(client).value());
  }

  // Warm the hot set for both scenarios (untimed), ending on scenario 3.
  for (std::size_t s : {std::size_t{1}, std::size_t{0}}) {
    auto loaded = clients[0].Call(LoadRequest(scenarios[s]));
    result.Count(loaded.ok() && IsOk(loaded.value()));
    for (const auto& request : hot) {
      if (!clients[0].SendLine(ExplainRequest(request).Dump(0)).ok()) break;
    }
    for (const auto& request : hot) {
      auto response = clients[0].ReadResponse();
      if (!response.ok()) {
        result.Count(false);
        continue;
      }
      served.push_back(Served{{s}, request, std::move(response).value()});
    }
  }

  // The window.
  std::vector<std::vector<Entry*>> by_connection(kConnections);
  for (Entry& entry : entries) by_connection[entry.connection].push_back(&entry);
  const Clock::time_point window_start =
      Clock::now() + std::chrono::milliseconds(20);
  {
    std::vector<std::thread> drivers;
    for (int c = 0; c < kConnections; ++c) {
      drivers.emplace_back(DriveConnection, std::ref(clients[c]),
                           by_connection[c], window_start);
    }
    for (std::thread& driver : drivers) driver.join();
  }
  const ns::serve::ServerStats stats = server->Stats();
  const double peak_rss_mb = PeakRssMb();
  server->Shutdown();

  // Which scenario could have answered each request: the one installed
  // when it was sent or received, or either while a load was in flight.
  struct Switch {
    Clock::time_point sent, acked;
    std::size_t to;
  };
  std::vector<Switch> switches;
  for (const Entry& entry : entries) {
    if (entry.kind != Kind::kLoad) continue;
    const bool ok = entry.answered && IsOk(entry.response);
    result.Count(ok);
    switches.push_back(Switch{entry.sent, ok ? entry.received : entry.sent,
                              entry.scenario});
  }
  auto possible = [&](const Entry& entry) {
    std::set<std::size_t> out;
    std::size_t current = 0;
    for (const Switch& s : switches) {
      if (entry.sent >= s.acked) current = s.to;
    }
    out.insert(current);
    for (const Switch& s : switches) {
      if (entry.sent < s.acked && entry.received > s.sent) out.insert(s.to);
    }
    return out;
  };

  std::vector<double> hit_ms, computed_ms, late_ms, cold_ms, warm_ms;
  Clock::time_point last_computed = window_start;
  for (const Entry& entry : entries) {
    late_ms.push_back(MsBetween(window_start, entry.sent) - entry.at_ms);
    if (entry.kind == Kind::kLoad) continue;
    if (!entry.answered || !IsOk(entry.response)) {
      std::fprintf(stderr, "perfbench: request failed (%s): %s\n",
                   entry.answered ? ErrorCode(entry.response).c_str()
                                  : "no response",
                   entry.line.c_str());
      result.Count(false);
      continue;
    }
    const double latency = MsBetween(window_start, entry.received) - entry.at_ms;
    const Json* cached = entry.response.Find("cached");
    if (cached != nullptr && cached->AsBool()) {
      hit_ms.push_back(latency);
    } else {
      computed_ms.push_back(latency);
      last_computed = std::max(last_computed, entry.received);
    }
    if (entry.kind == Kind::kCold) cold_ms.push_back(latency);
    if (entry.kind == Kind::kWarm) warm_ms.push_back(latency);
    served.push_back(
        Served{possible(entry), entry.request, entry.response, &entry});
  }

  // Reference answers through AnswerRequest (BatchExplain) for every
  // served (scenario, question).
  std::map<std::pair<std::size_t, std::string>, std::size_t> reference_index;
  std::vector<Question> references;
  std::vector<std::size_t> reference_scenario;
  auto reference_key = [](const ex::BatchRequest& request) {
    return ArenaKey(request) + "|" + ex::LiftModeName(request.mode) + "|" +
           ns::smt::SolverBackendName(request.solver.backend);
  };
  for (const Served& answer : served) {
    for (std::size_t s : answer.scenarios) {
      const auto key = std::make_pair(s, reference_key(answer.request));
      if (reference_index.count(key) != 0) continue;
      reference_index[key] = references.size();
      references.push_back(Question{scenarios[s].name, answer.request});
      reference_scenario.push_back(s);
    }
  }
  std::vector<Answer> answers(references.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    std::vector<std::size_t> index;
    std::vector<ex::BatchRequest> requests;
    for (std::size_t i = 0; i < references.size(); ++i) {
      if (reference_scenario[i] != s) continue;
      index.push_back(i);
      requests.push_back(references[i].request);
    }
    ex::BatchOptions batch;
    batch.num_threads = kWorkers;
    batch.registry = std::make_shared<ex::ArenaRegistry>();
    const Network& network = scenarios[s].network;
    const ex::BatchOutcome outcome = ex::BatchExplain(
        network.topo, network.spec, network.solved, requests, batch);
    for (std::size_t k = 0; k < index.size(); ++k) {
      const ex::BatchItem& item = outcome.items[k];
      Answer& answer = answers[index[k]];
      answer.ok = item.result.ok();
      answer.wall_ms = item.wall_ms;
      if (answer.ok) {
        answer.report = item.result.value().report;
        answer.subspec_text = item.result.value().subspec_text;
      }
    }
  }
  // Traced run: the same references again on the traced arena path; its
  // answer spans stand in for the server's compute of each question.
  Tracer tracer;
  std::vector<Answer> traced;
  if (args.trace) {
    traced.resize(references.size());
    std::vector<std::shared_ptr<ex::ArenaRegistry>> registries;
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      registries.push_back(std::make_shared<ex::ArenaRegistry>());
    }
    const auto groups = GroupByArenaKey(references);
    ParallelFor(groups.size(), kWorkers, [&](std::size_t g) {
      const std::size_t s = reference_scenario[groups[g].front()];
      AnswerArenaGroup(tracer, scenarios[s].network, references, groups[g],
                       registries[s], traced);
    });
    for (std::size_t i = 0; i < references.size(); ++i) {
      result.Count(traced[i].ok == answers[i].ok &&
                   traced[i].report == answers[i].report &&
                   traced[i].subspec_text == answers[i].subspec_text);
    }
  }

  // The check: a served answer must equal the reference answer of one of
  // the scenarios that could have answered it, and that answer must match
  // the expected table.
  for (Served& answer : served) {
    if (!IsOk(answer.response)) {
      std::fprintf(stderr, "perfbench: warm-up ask failed: %s\n",
                   answer.response.Dump(0).c_str());
      result.Count(false);
      continue;
    }
    const std::string report = answer.response.Find("report")->AsString();
    const std::string subspec = answer.response.Find("subspec")->AsString();
    for (std::size_t s : answer.scenarios) {
      const std::size_t r =
          reference_index.at({s, reference_key(answer.request)});
      const Answer& reference = answers[r];
      if (reference.ok && reference.report == report &&
          reference.subspec_text == subspec &&
          expected.Matches(references[r], report, subspec)) {
        answer.reference = static_cast<long>(r);
        break;
      }
    }
    if (answer.reference < 0) {
      std::fprintf(stderr, "perfbench: served answer differs: %s\n",
                   ExplainRequest(answer.request).Dump(0).c_str());
    }
    result.Count(answer.reference >= 0);
  }

  std::fprintf(stderr,
               "perfbench: serve-mix latency ms: cold n=%zu p50=%.1f max=%.1f;"
               " warm n=%zu p50=%.1f p90=%.1f; hit n=%zu p50=%.2f p99=%.1f\n",
               cold_ms.size(), Median(cold_ms), Percentile(cold_ms, 100),
               warm_ms.size(), Median(warm_ms), Percentile(warm_ms, 90),
               hit_ms.size(), Median(hit_ms), Percentile(hit_ms, 99));
  if (!args.trace) {
    result.Add("answer_ms_p50", Median(computed_ms), "ms");
    result.Add("answer_ms_tail",
               Percentile(computed_ms, TailPercentile(computed_scheduled)),
               "ms");
    result.Add("answers_per_s",
               static_cast<double>(computed_ms.size()) /
                   (MsBetween(window_start, last_computed) / 1000.0),
               "1/s");
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    return result;
  }

  // Per-layer numbers: the traced reference answers stand in for the
  // server's compute of the same questions.
  LayerInputs layers;
  layers.spans = tracer.Spans();
  layers.answers = traced;
  layers.arena = stats.arena;
  for (const Answer& answer : answers) {
    layers.untraced_ms.push_back(answer.wall_ms);
  }
  ServeLayer serve;
  {
    std::set<std::string> lines;
    for (const Entry& entry : entries) lines.insert(entry.line);
    constexpr int kParseRepeats = 50;
    const Clock::time_point start = Clock::now();
    std::size_t parsed = 0;
    for (int r = 0; r < kParseRepeats; ++r) {
      for (const std::string& line : lines) {
        parsed += ns::serve::ParseRequest(line).ok() ? 1 : 0;
      }
    }
    serve.parse_us = MsSince(start) * 1000.0 /
                     static_cast<double>(kParseRepeats * lines.size());
    if (parsed != kParseRepeats * lines.size()) result.correct = false;
  }
  const double lookups =
      static_cast<double>(stats.cache.hits + stats.cache.misses);
  serve.cache_hit_ratio =
      lookups > 0 ? static_cast<double>(stats.cache.hits) / lookups : 0;
  serve.shed = static_cast<double>(stats.requests_shed);
  serve.deadline_exceeded = static_cast<double>(stats.deadline_exceeded);
  double compute_ms = 0;
  std::vector<double> queue_wait_ms;
  for (const Served& answer : served) {
    if (answer.entry == nullptr || answer.reference < 0) continue;
    const Json* cached = answer.response.Find("cached");
    if (cached != nullptr && cached->AsBool()) continue;
    const double latency =
        MsBetween(window_start, answer.entry->received) - answer.entry->at_ms;
    const double compute =
        traced[static_cast<std::size_t>(answer.reference)].wall_ms;
    queue_wait_ms.push_back(latency - compute);
    compute_ms += compute;
  }
  serve.queue_wait_ms = Mean(queue_wait_ms);
  serve.hit_ms_p50 = Percentile(hit_ms, 50);
  serve.hit_ms_p99 = Percentile(hit_ms, 99);
  serve.late_ms_p99 = Percentile(late_ms, 99);
  std::fprintf(stderr,
               "perfbench: serve-mix computed work %.0f ms over %.0f ms x %d "
               "workers (utilization %.2f)\n",
               compute_ms, window_ms, kWorkers,
               compute_ms / (window_ms * kWorkers));
  if (!AddLayerMetrics(layers, &serve, result)) result.correct = false;
  return result;
}

}  // namespace perfbench
