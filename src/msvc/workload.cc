#include "msvc/workload.h"

#include <memory>
#include <optional>
#include <utility>

#include "common/logging.h"

namespace dmrpc::msvc {

namespace {

/// Shared between the runner and every spawned request coroutine, so
/// stragglers that complete after the runner returns still touch live
/// memory (they are simply not recorded).
struct RunState {
  RequestFn fn;
  TimeNs measure_start = 0;
  TimeNs measure_end = 0;
  bool stop = false;
  WorkloadResult result;
};

/// Issues one request and records it against the measurement window.
sim::Task<> IssueOne(sim::Simulation* sim, std::shared_ptr<RunState> state) {
  TimeNs start = sim->Now();
  bool in_window =
      start >= state->measure_start && start < state->measure_end;
  if (in_window) state->result.offered++;
  auto outcome = co_await state->fn();
  TimeNs end = sim->Now();
  if (!in_window || end > state->measure_end) co_return;
  if (outcome.ok()) {
    state->result.completed++;
    state->result.bytes += *outcome;
    state->result.latency.Record(end - start);
  } else {
    state->result.failed++;
  }
}

sim::Task<> ClosedLoopWorker(sim::Simulation* sim,
                             std::shared_ptr<RunState> state) {
  while (!state->stop) {
    co_await IssueOne(sim, state);
  }
}

}  // namespace

Status RunToCompletion(sim::Simulation* sim, sim::Task<Status> task,
                       TimeNs timeout) {
  auto done = std::make_shared<std::optional<Status>>();
  // Wrap the task so completion is observable from outside.
  auto wrapper = [](sim::Task<Status> inner,
                    std::shared_ptr<std::optional<Status>> out)
      -> sim::Task<> {
    Status st = co_await std::move(inner);
    out->emplace(std::move(st));
  };
  sim->Spawn(wrapper(std::move(task), done));
  TimeNs deadline = sim->Now() + timeout;
  while (!done->has_value() && sim->NextEventTime() >= 0 &&
         sim->NextEventTime() <= deadline && sim->Step()) {
  }
  if (!done->has_value()) {
    return Status::TimedOut("setup task did not complete");
  }
  return std::move(**done);
}

WorkloadResult RunClosedLoop(sim::Simulation* sim, const RequestFn& fn,
                             int workers, TimeNs warmup, TimeNs measure,
                             const WindowHooks& hooks) {
  DMRPC_CHECK_GT(workers, 0);
  auto state = std::make_shared<RunState>();
  state->fn = fn;
  state->measure_start = sim->Now() + warmup;
  state->measure_end = state->measure_start + measure;
  state->result.window = measure;
  for (int i = 0; i < workers; ++i) {
    sim->Spawn(ClosedLoopWorker(sim, state));
  }
  if (hooks.on_measure_start) sim->At(state->measure_start, hooks.on_measure_start);
  sim->RunUntil(state->measure_end);
  if (hooks.on_measure_end) hooks.on_measure_end();
  state->stop = true;
  // Drain: let in-flight requests finish (they no longer record).
  sim->RunFor(measure / 4 + 10 * kMillisecond);
  return std::move(state->result);
}

}  // namespace dmrpc::msvc
