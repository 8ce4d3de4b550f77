#include "scenarios/serve.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "blocks/builder.hpp"
#include "data/climate.hpp"
#include "data/corpus.hpp"
#include "stage/stage.hpp"

namespace psnap::scenarios {

using namespace psnap::build;
using blocks::Value;

namespace {

/// Split a parameter-encoded label ("wordcount:24:7") into its fields.
std::vector<std::string> labelFields(const std::string& label) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t colon = label.find(':', start);
    if (colon == std::string::npos) {
      fields.push_back(label.substr(start));
      return fields;
    }
    fields.push_back(label.substr(start, colon - start));
    start = colon + 1;
  }
}

/// The restart-from-scratch recovery model for idempotent workloads: the
/// recovered project carries no state worth keeping (the computation is
/// deterministic from its parameters, which live in the label), so
/// resume just re-runs start.
void makeIdempotentRecoverable(
    serve::SessionWorkload& workload,
    std::function<std::string(sched::ThreadManager&,
                              const std::shared_ptr<void>&)>
        output) {
  const std::string label = workload.label;
  workload.capture = [label](sched::ThreadManager&,
                             const std::shared_ptr<void>&) {
    project::Project project;
    project.name = label;
    return project;
  };
  workload.resume = [start = workload.start](
                        sched::ThreadManager& tm,
                        const project::Project&) { return start(tm); };
  workload.output = std::move(output);
}

}  // namespace

serve::SessionWorkload serveConcessionWorkload(size_t cups) {
  serve::SessionWorkload workload;
  workload.label = "concession:" + std::to_string(cups);
  workload.start = [cups](sched::ThreadManager& tm) -> std::shared_ptr<void> {
    auto stage = std::make_shared<stage::Stage>(&tm);
    stage->globals()->declare("pourStart", Value(""));
    stage->globals()->declare("pourEnd", Value(0));
    std::vector<In> cupNames;
    for (size_t i = 1; i <= cups; ++i) {
      const std::string name = "Cup" + std::to_string(i);
      stage::Sprite& cup = stage->addSprite(name);
      cup.setCostume("empty");
      cup.addScript(scriptOf(
          {whenIReceive("fill-" + name), switchCostume("full")}));
      cupNames.emplace_back(name);
    }
    auto pourBody = scriptOf({
        doIf(equals(getVar("pourStart"), ""),
             scriptOf({setVar("pourStart", timer())})),
        busyWork(1),
        setVar("pourEnd", timer()),
        broadcast(join({In("fill-"), In(getVar("cup"))})),
    });
    stage::Sprite& pitcher = stage->addSprite("Pitcher");
    pitcher.setCostume("pitcher");
    pitcher.addScript(scriptOf({
        whenGreenFlag(),
        parallelForEach("cup", listOf(cupNames), blank(), pourBody),
    }));
    stage->greenFlag();
    return stage;
  };
  workload.check = [cups](sched::ThreadManager&,
                          const std::shared_ptr<void>& opaque) {
    auto* stage = static_cast<stage::Stage*>(opaque.get());
    size_t filled = 0;
    for (stage::Sprite* sprite : stage->sprites()) {
      if (sprite->costume() == "full") ++filled;
    }
    return filled == cups;
  };
  makeIdempotentRecoverable(
      workload, [](sched::ThreadManager&, const std::shared_ptr<void>& opaque) {
        // Sprite insertion order is deterministic (Cup1..CupN, Pitcher).
        auto* stage = static_cast<stage::Stage*>(opaque.get());
        std::string out;
        for (stage::Sprite* sprite : stage->sprites()) {
          if (!out.empty()) out += ";";
          out += sprite->name() + "=" + sprite->costume();
        }
        return out;
      });
  return workload;
}

namespace {
struct WordCountState {
  std::string text;
  std::shared_ptr<const vm::ProcessStatus> status;
};
}  // namespace

serve::SessionWorkload serveWordCountWorkload(size_t words, uint64_t seed) {
  serve::SessionWorkload workload;
  workload.label =
      "wordcount:" + std::to_string(words) + ":" + std::to_string(seed);
  workload.start = [words,
                    seed](sched::ThreadManager& tm) -> std::shared_ptr<void> {
    auto state = std::make_shared<WordCountState>();
    state->text = data::generateText(words, 8, seed);
    state->status = tm.spawnExpression(
                          mapReduce(ring(In(1.0)), ring(lengthOf(empty())),
                                    splitText(state->text, "whitespace")),
                          blocks::Environment::make())
                        .status;
    return state;
  };
  workload.check = [](sched::ThreadManager&,
                      const std::shared_ptr<void>& opaque) {
    auto* state = static_cast<WordCountState*>(opaque.get());
    if (!state->status->done || state->status->errored) return false;
    return wordCountMatches(state->status->result, state->text);
  };
  makeIdempotentRecoverable(
      workload, [](sched::ThreadManager&, const std::shared_ptr<void>& opaque) {
        // Sorted by word so the rendering is independent of whatever
        // order the reduce emitted pairs in.
        auto* state = static_cast<WordCountState*>(opaque.get());
        std::vector<std::pair<std::string, uint64_t>> pairs;
        if (state->status->done && !state->status->errored &&
            state->status->result.isList()) {
          for (const Value& pair : state->status->result.asList()->items()) {
            if (!pair.isList() || pair.asList()->length() != 2) continue;
            pairs.emplace_back(pair.asList()->item(1).asText(),
                               uint64_t(pair.asList()->item(2).asNumber()));
          }
        }
        std::sort(pairs.begin(), pairs.end());
        std::string out;
        for (const auto& [word, count] : pairs) {
          if (!out.empty()) out += ";";
          out += word + "=" + std::to_string(count);
        }
        return out;
      });
  return workload;
}

bool wordCountMatches(const Value& result, const std::string& text) {
  if (!result.isList()) return false;
  const auto reference = data::referenceWordCount(text);
  if (result.asList()->length() != reference.size()) return false;
  for (const Value& pair : result.asList()->items()) {
    if (!pair.isList() || pair.asList()->length() != 2) return false;
    const auto expected = reference.find(pair.asList()->item(1).asText());
    if (expected == reference.end() ||
        pair.asList()->item(2).asNumber() != double(expected->second)) {
      return false;
    }
  }
  return true;
}

namespace {
struct ClimateState {
  double referenceMean = 0;
  std::shared_ptr<const vm::ProcessStatus> status;
};
}  // namespace

serve::SessionWorkload serveClimateWorkload(int years, uint64_t seed) {
  serve::SessionWorkload workload;
  workload.label =
      "climate:" + std::to_string(years) + ":" + std::to_string(seed);
  workload.start = [years,
                    seed](sched::ThreadManager& tm) -> std::shared_ptr<void> {
    data::ClimateConfig config;
    config.stations = 1;
    config.firstYear = 2000;
    config.lastYear = 2000 + (years > 0 ? years - 1 : 0);
    config.seed = seed;
    const auto records = data::generateClimate(config);
    auto state = std::make_shared<ClimateState>();
    state->referenceMean = data::referenceMeanCelsius(records);
    // mean(celsius) = sum(parallelMap f→c over readings) / count
    auto fahrenheit = data::toFahrenheitList(records);
    const double count = double(fahrenheit->length());
    state->status =
        tm.spawnExpression(
              quotient(combineUsing(parallelMap(
                                        ring(quotient(
                                            product(difference(empty(),
                                                               In(32.0)),
                                                    In(5.0)),
                                            In(9.0))),
                                        In(Value(fahrenheit))),
                                    ring(sum(empty(), empty()))),
                       In(count)),
              blocks::Environment::make())
            .status;
    return state;
  };
  workload.check = [](sched::ThreadManager&,
                      const std::shared_ptr<void>& opaque) {
    auto* state = static_cast<ClimateState*>(opaque.get());
    if (!state->status->done || state->status->errored) return false;
    return std::abs(state->status->result.asNumber() -
                    state->referenceMean) < 1e-6;
  };
  makeIdempotentRecoverable(
      workload, [](sched::ThreadManager&, const std::shared_ptr<void>& opaque) {
        auto* state = static_cast<ClimateState*>(opaque.get());
        if (!state->status->done || state->status->errored) return std::string();
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), "mean=%.9f",
                      state->status->result.asNumber());
        return std::string(buffer);
      });
  return workload;
}

serve::SessionWorkload serveSpinWorkload() {
  serve::SessionWorkload workload;
  workload.label = "spin";
  workload.start = [](sched::ThreadManager& tm) -> std::shared_ptr<void> {
    tm.spawnScript(scriptOf({forever(scriptOf({busyWork(1)}))}),
                   blocks::Environment::make());
    return nullptr;
  };
  return workload;
}

namespace {
struct TickerState {
  blocks::EnvPtr env;
  size_t target = 0;
};

/// Spawn the counting script. The `repeat` count is evaluated once at
/// loop entry, so a resumed session with k elements already in the list
/// runs exactly target-k more iterations — each appending length+1.
void spawnTicker(sched::ThreadManager& tm, TickerState& state) {
  tm.spawnScript(
      scriptOf({repeat(
          difference(In(double(state.target)), lengthOf(getVar("ticks"))),
          scriptOf({busyWork(1),
                    addToList(sum(lengthOf(getVar("ticks")), In(1.0)),
                              getVar("ticks"))}))}),
      state.env);
}
}  // namespace

serve::SessionWorkload serveTickerWorkload(size_t target) {
  serve::SessionWorkload workload;
  workload.label = "ticker:" + std::to_string(target);
  workload.start = [target](sched::ThreadManager& tm) -> std::shared_ptr<void> {
    auto state = std::make_shared<TickerState>();
    state->target = target;
    state->env = blocks::Environment::make();
    state->env->declare("ticks", Value(blocks::List::make()));
    spawnTicker(tm, *state);
    return state;
  };
  workload.capture = [](sched::ThreadManager&,
                        const std::shared_ptr<void>& opaque) {
    auto* state = static_cast<TickerState*>(opaque.get());
    project::Project project;
    project.name = "ticker";
    // O(1) for this flat list: the clone shares the buffer and the
    // session's next append copies out (COW), never touching it.
    project.globals.emplace_back("ticks",
                                 state->env->get("ticks").structuredClone());
    return project;
  };
  workload.resume = [target](
                        sched::ThreadManager& tm,
                        const project::Project& project) -> std::shared_ptr<void> {
    auto state = std::make_shared<TickerState>();
    state->target = target;
    state->env = blocks::Environment::make();
    Value ticks(blocks::List::make());
    for (const auto& [name, value] : project.globals) {
      if (name == "ticks" && value.isList()) ticks = value.structuredClone();
    }
    state->env->declare("ticks", std::move(ticks));
    spawnTicker(tm, *state);
    return state;
  };
  workload.check = [target](sched::ThreadManager&,
                            const std::shared_ptr<void>& opaque) {
    auto* state = static_cast<TickerState*>(opaque.get());
    const Value& ticks = state->env->get("ticks");
    if (!ticks.isList() || ticks.asList()->length() != target) return false;
    for (size_t i = 1; i <= target; ++i) {
      if (ticks.asList()->item(i).asNumber() != double(i)) return false;
    }
    return true;
  };
  workload.output = [](sched::ThreadManager&,
                       const std::shared_ptr<void>& opaque) {
    auto* state = static_cast<TickerState*>(opaque.get());
    const Value& ticks = state->env->get("ticks");
    std::string out;
    if (!ticks.isList()) return out;
    for (const Value& item : ticks.asList()->items()) {
      if (!out.empty()) out += ",";
      out += std::to_string(int64_t(item.asNumber()));
    }
    return out;
  };
  return workload;
}

serve::SessionWorkload serveMixedWorkload(size_t index) {
  switch (index % 3) {
    case 0:
      return serveConcessionWorkload(2);
    case 1:
      return serveWordCountWorkload(24, uint64_t(index) * 2 + 1);
    default:
      return serveClimateWorkload(1, uint64_t(index) * 2 + 1);
  }
}

serve::SessionWorkload serveMixedRecoverableWorkload(size_t index) {
  switch (index % 4) {
    case 0:
      return serveTickerWorkload(12 + (index % 3) * 6);
    case 1:
      return serveConcessionWorkload(2);
    case 2:
      return serveWordCountWorkload(24, uint64_t(index) * 2 + 1);
    default:
      return serveClimateWorkload(1, uint64_t(index) * 2 + 1);
  }
}

serve::SessionWorkload serveRecoveryFactory(const serve::CheckpointMeta& meta) {
  const std::vector<std::string> fields = labelFields(meta.label);
  try {
    if (fields[0] == "ticker" && fields.size() == 2) {
      return serveTickerWorkload(std::stoul(fields[1]));
    }
    if (fields[0] == "concession" && fields.size() == 2) {
      return serveConcessionWorkload(std::stoul(fields[1]));
    }
    if (fields[0] == "wordcount" && fields.size() == 3) {
      return serveWordCountWorkload(std::stoul(fields[1]),
                                    std::stoull(fields[2]));
    }
    if (fields[0] == "climate" && fields.size() == 3) {
      return serveClimateWorkload(std::stoi(fields[1]),
                                  std::stoull(fields[2]));
    }
  } catch (const std::exception&) {
    // Malformed parameters fall through to the typed rejection.
  }
  throw SubstrateError("no recovery factory for workload label '" +
                       meta.label + "'");
}

}  // namespace psnap::scenarios
