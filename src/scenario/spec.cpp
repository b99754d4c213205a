#include "scenario/spec.hpp"

#include <cmath>
#include <stdexcept>

#include "common/io.hpp"

namespace ritm::scenario {

namespace {

// Doubles go into the digest as their IEEE-754 bit pattern: exact, and two
// processes that parsed the same spec hash the same bytes.
std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

ScenarioSpec ScenarioSpec::smoke() {
  ScenarioSpec s;
  s.name = "smoke";
  s.flows = 100'000;
  s.drivers = 4;
  s.cas = 4;
  s.initial_revocations = 20'000;
  s.serial_space = 1u << 18;
  s.periods = 12;
  s.feed_revocations_per_period = 256;
  s.flash_crowds.push_back({.start_period = 6, .periods = 2, .multiplier = 3.0});
  s.mass_revocation = MassRevocation{.ca = 0, .period = 8, .count = 4'000};
  return s;
}

ScenarioSpec ScenarioSpec::heartbleed() {
  ScenarioSpec s;
  s.name = "heartbleed";
  s.flows = 1'000'000;
  s.drivers = 8;
  s.cas = 8;
  s.initial_revocations = 100'000;
  s.serial_space = 1u << 20;
  s.periods = 24;
  s.feed_revocations_per_period = 1'024;
  s.trace_day0 = 100;  // period 6 lands on trace day 105, the Heartbleed peak
  s.flash_crowds.push_back(
      {.start_period = 12, .periods = 4, .multiplier = 5.0});
  s.mass_revocation = MassRevocation{.ca = 0, .period = 12, .count = 120'000};
  return s;
}

Bytes ScenarioSpec::encode_workload() const {
  ByteWriter w;
  w.raw(bytes_of("ritm.scenario.spec.v1"));
  w.u64(seed);
  w.u64(flows);
  w.u64(double_bits(zipf_s));
  w.u64(serial_space);
  w.u32(canary_every);
  w.u32(static_cast<std::uint32_t>(flash_crowds.size()));
  for (const auto& fc : flash_crowds) {
    w.u64(fc.start_period);
    w.u64(fc.periods);
    w.u64(double_bits(fc.multiplier));
  }
  w.u32(static_cast<std::uint32_t>(cas));
  w.u64(initial_revocations);
  w.u64(static_cast<std::uint64_t>(delta));
  w.u64(periods);
  w.u64(feed_revocations_per_period);
  w.u32(static_cast<std::uint32_t>(trace_day0));
  w.u8(mass_revocation.has_value() ? 1 : 0);
  if (mass_revocation) {
    w.u32(static_cast<std::uint32_t>(mass_revocation->ca));
    w.u64(mass_revocation->period);
    w.u64(mass_revocation->count);
  }
  return w.take();
}

double ScenarioSpec::crowd_multiplier(std::uint64_t period) const noexcept {
  double m = 1.0;
  for (const auto& fc : flash_crowds) {
    if (period >= fc.start_period && period < fc.start_period + fc.periods) {
      m *= fc.multiplier;
    }
  }
  return m;
}

void ScenarioSpec::validate() const {
  auto bad = [](const char* what) {
    throw std::invalid_argument(std::string("ScenarioSpec: ") + what);
  };
  if (flows == 0) bad("flows must be > 0");
  if (drivers == 0) bad("drivers must be > 0");
  if (batch == 0) bad("batch must be > 0");
  if (!(zipf_s >= 0.0)) bad("zipf_s must be >= 0");
  if (cas <= 0) bad("cas must be > 0");
  if (periods == 0) bad("periods must be > 0");
  if (delta <= 0) bad("delta must be > 0");
  if (serial_space < 2) bad("serial_space must be >= 2");
  if (serial_space > kFlowValueMaxSerialSpace) {
    bad("serial_space exceeds the 48-bit flow-word encoding");
  }
  // Every CA must hold at least one revocation so cold-start objects and
  // status queries are well-defined from period 0.
  if (initial_revocations < static_cast<std::uint64_t>(cas)) {
    bad("initial_revocations must be >= cas");
  }
  if (trace_day0 < 0) bad("trace_day0 must be >= 0");
  for (const auto& fc : flash_crowds) {
    if (fc.periods == 0) bad("flash crowd spans zero periods");
    if (!(fc.multiplier > 0.0)) bad("flash crowd multiplier must be > 0");
  }
  // Every revocation consumes one odd serial; the whole run must fit in
  // the odd half of [1, serial_space] or late revocations would alias
  // serials the sampler treats as never-revoked.
  std::uint64_t total_revocations =
      initial_revocations + periods * feed_revocations_per_period;
  if (mass_revocation) {
    const auto& mr = *mass_revocation;
    if (mr.ca < 0 || mr.ca >= cas) bad("mass revocation CA out of range");
    if (mr.period < 1 || mr.period > periods) {
      bad("mass revocation period out of range");
    }
    if (mr.count == 0) bad("mass revocation count must be > 0");
    total_revocations += mr.count;
  }
  if (total_revocations > serial_space / 2) {
    bad("serial_space too small for the total revocation volume");
  }
}

}  // namespace ritm::scenario
