// Tenant workloads for the serving layer.
//
// Each factory returns a serve::SessionWorkload wrapping one of the
// paper's demo projects, sized small enough that a server can host
// thousands of them at once:
//
//   * concession — the Sec. 3.3 concession stand (stage + sprite clones,
//     pure cooperative scheduling, no worker-pool traffic);
//   * wordcount  — the Fig. 11 word count through the mapReduce block
//     (a pooled mr::Job per session);
//   * climate    — the Sec. 3.4 temperature mean through parallelMap
//     (a pooled Parallel op per session) reduced sequentially;
//   * spin       — a tenant that never finishes on its own (forever +
//     busy work): watchdog and shedding fodder;
//   * ticker     — an incremental counter that grows a global list by one
//     element per frame: the workload whose *mid-flight state* matters,
//     built to exercise checkpoint/resume (see below).
//
// Every workload self-verifies: `check` recomputes the expected output in
// plain C++ (reference word counts, reference mean Celsius, cup costumes)
// so multi-tenant tests can assert *correctness under faults*, not just
// completion.
//
// All workloads except spin are *recoverable* (capture/resume/output set):
// concession, wordcount, and climate are idempotent — their capture stores
// only the generator parameters and resume re-runs from the start, so the
// checkpoint is tiny and (being content-identical every interval) is
// written once and skipped thereafter. The ticker is genuinely
// incremental: capture snapshots the partially-built list (O(1) COW
// clone), resume continues from exactly that prefix, and the remaining
// `repeat` count is recomputed from the recovered length. Labels encode
// the generator parameters ("wordcount:24:7"), which is how
// serveRecoveryFactory maps a recovered checkpoint back to its workload.
#pragma once

#include <cstdint>
#include <cstddef>

#include "serve/session_server.hpp"

namespace psnap::scenarios {

/// The concession stand with `cups` cups poured by parallel clones.
serve::SessionWorkload serveConcessionWorkload(size_t cups = 2);

/// Word count over a `words`-word Zipf text (distinct vocabulary of 8),
/// via the mapReduce block; checked against data::referenceWordCount.
serve::SessionWorkload serveWordCountWorkload(size_t words = 24,
                                              uint64_t seed = 1);

/// The wordcount check: `result` is a list of [word, count] pairs holding
/// exactly data::referenceWordCount(text). Counts compare as doubles, so
/// a fractional, negative or NaN count fails.
bool wordCountMatches(const blocks::Value& result, const std::string& text);

/// Mean temperature in Celsius over one synthetic station-year
/// (12 monthly readings per `years`), Fahrenheit converted by a
/// parallelMap ring; checked against data::referenceMeanCelsius.
serve::SessionWorkload serveClimateWorkload(int years = 1,
                                            uint64_t seed = 1);

/// A tenant that loops forever (one busy-work frame per iteration).
/// Never completes on its own; exists to be watchdogged, shed, or
/// cancelled.
serve::SessionWorkload serveSpinWorkload();

/// The incremental counter: a global list grows by one element per frame
/// until it holds [1..target]; checked element-wise, output "1,2,…,target".
/// The canonical mid-state-resume workload — a session recovered at
/// length k appends exactly target-k more elements.
serve::SessionWorkload serveTickerWorkload(size_t target = 48);

/// The standard mixed-tenant stream: cycles concession / wordcount /
/// climate, with per-index seeds so no two sessions share inputs.
serve::SessionWorkload serveMixedWorkload(size_t index);

/// The recoverable mixed stream: cycles ticker / concession / wordcount /
/// climate (all with capture/resume/output hooks).
serve::SessionWorkload serveMixedRecoverableWorkload(size_t index);

/// Map a recovered checkpoint back to its workload by parsing the
/// parameter-encoded label the factories above write. Throws
/// SubstrateError for labels no factory produced.
serve::SessionWorkload serveRecoveryFactory(const serve::CheckpointMeta& meta);

}  // namespace psnap::scenarios
