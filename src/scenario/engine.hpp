// ScenarioEngine: runs a compiled WorkloadPlan against the real serving
// plane.
//
// The engine stands up the full RITM pipeline — CAs with live dictionaries
// and hash chains, a DistributionPoint publishing per-period feed objects
// into a CDN, an RaUpdater that cold-starts every replica from the CDN and
// pulls each period's feed, and an RaService answering status_batch over
// the envelope API — then replays the plan's flows from `drivers`
// concurrent client threads. Two execution modes:
//
//   * lockstep (CI / tests): periods advance in a barrier loop
//     (revoke+publish → pull → flows), so every verdict, staleness sample,
//     and attack-window sample is a pure function of the spec — the report
//     digest is byte-identical across runs and driver counts.
//   * freerun (saturation / latency): a publisher thread advances periods
//     on a real clock while drivers race it; the store orders its pulls
//     against serving reads itself, and lag shows up as staleness instead
//     of being impossible.
//
// Transports: in-process envelope dispatch by default; spec.tcp = true
// stands up a multi-reactor svc::TcpServer and gives every driver its own
// pipelined svc::TcpClient — same frames, real sockets.
//
// Clients do real verification work per flow: decode the RevocationStatus,
// read the verdict off the proof type, date the served root by walking the
// freshness hash chain to its anchor, optionally verify the Merkle proof,
// and cross-check the verdict against the plan's ground truth.
#pragma once

#include "scenario/report.hpp"
#include "scenario/workload.hpp"

namespace ritm::scenario {

class ScenarioEngine {
 public:
  /// Compiles the plan (throws std::invalid_argument on a bad spec).
  explicit ScenarioEngine(ScenarioSpec spec);

  const WorkloadPlan& plan() const noexcept { return plan_; }

  /// Builds the world, replays every flow, and reports. Throws
  /// std::runtime_error if the world cannot be assembled (a cold start or
  /// bootstrap refused) — never for flow-level failures, which are counted
  /// in the report instead.
  ScenarioReport run();

 private:
  WorkloadPlan plan_;
};

}  // namespace ritm::scenario
