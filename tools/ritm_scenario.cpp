// ritm_scenario: run an internet-scale workload scenario against the real
// serving plane and print the machine-readable report.
//
//   ./ritm_scenario --preset heartbleed                # 1M flows, mass day
//   ./ritm_scenario --preset smoke --tcp --freerun     # sockets, real clock
//   ./ritm_scenario --flows 2000000 --drivers 8 --seed 7
//
// The report is a JSON object on stdout (metric definitions in README.md
// "Scenario harness"); a human summary goes to stderr. In lockstep mode the
// report_digest is a pure function of the spec — run twice, diff the
// digests, and you have proven the runs served identical verdicts.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "scenario/engine.hpp"

using namespace ritm;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: ritm_scenario [--preset smoke|heartbleed] [options]\n"
      "  --preset NAME     base spec: smoke (100k flows) or heartbleed\n"
      "                    (1M flows, 120k mass-revocation period; default)\n"
      "  --flows N         total client flows\n"
      "  --drivers N       client driver threads\n"
      "  --cas N           certification authorities\n"
      "  --periods N       feed periods to run\n"
      "  --batch N         serials per status_batch envelope\n"
      "  --zipf S          serial-popularity Zipf exponent\n"
      "  --seed N          RNG seed (schedule + report digest determinism)\n"
      "  --delta N         RITM update period in virtual seconds\n"
      "  --mass-count N    mass-revocation size (0 disables the event)\n"
      "  --mass-period P   period of the mass-revocation event\n"
      "  --tcp             drive a live multi-reactor TcpServer instead of\n"
      "                    in-process dispatch\n"
      "  --reactors N      server reactors in --tcp mode\n"
      "  --freerun         real-clock mode: publisher thread races drivers\n"
      "  --period-ms N     real milliseconds per period in --freerun\n"
      "  --plan-only       compile the plan, print its digest, and exit\n");
  std::exit(2);
}

std::uint64_t arg_u64(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage();
  return std::strtoull(argv[++i], nullptr, 10);
}

double arg_f64(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage();
  return std::strtod(argv[++i], nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::heartbleed();
  bool plan_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--preset") {
      if (i + 1 >= argc) usage();
      const std::string name = argv[++i];
      if (name == "smoke") {
        spec = scenario::ScenarioSpec::smoke();
      } else if (name == "heartbleed") {
        spec = scenario::ScenarioSpec::heartbleed();
      } else {
        usage();
      }
    } else if (arg == "--flows") {
      spec.flows = arg_u64(argc, argv, i);
    } else if (arg == "--drivers") {
      spec.drivers = static_cast<unsigned>(arg_u64(argc, argv, i));
    } else if (arg == "--cas") {
      spec.cas = static_cast<int>(arg_u64(argc, argv, i));
    } else if (arg == "--periods") {
      spec.periods = arg_u64(argc, argv, i);
    } else if (arg == "--batch") {
      spec.batch = static_cast<std::uint32_t>(arg_u64(argc, argv, i));
    } else if (arg == "--zipf") {
      spec.zipf_s = arg_f64(argc, argv, i);
    } else if (arg == "--seed") {
      spec.seed = arg_u64(argc, argv, i);
    } else if (arg == "--delta") {
      spec.delta = static_cast<UnixSeconds>(arg_u64(argc, argv, i));
    } else if (arg == "--mass-count") {
      const auto n = arg_u64(argc, argv, i);
      if (n == 0) {
        spec.mass_revocation.reset();
      } else {
        if (!spec.mass_revocation) spec.mass_revocation.emplace();
        spec.mass_revocation->count = n;
      }
    } else if (arg == "--mass-period") {
      if (!spec.mass_revocation) spec.mass_revocation.emplace();
      spec.mass_revocation->period = arg_u64(argc, argv, i);
    } else if (arg == "--tcp") {
      spec.tcp = true;
    } else if (arg == "--reactors") {
      spec.reactors = static_cast<unsigned>(arg_u64(argc, argv, i));
    } else if (arg == "--freerun") {
      spec.lockstep = false;
    } else if (arg == "--period-ms") {
      spec.period_ms = static_cast<std::uint32_t>(arg_u64(argc, argv, i));
    } else if (arg == "--plan-only") {
      plan_only = true;
    } else {
      usage();
    }
  }

  try {
    scenario::ScenarioEngine engine(spec);
    const auto& plan = engine.plan();
    std::fprintf(stderr,
                 "scenario '%s': %llu flows over %llu periods, %d CAs, "
                 "%u drivers, %s/%s\n  schedule digest %s\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(plan.total_flows()),
                 static_cast<unsigned long long>(spec.periods), spec.cas,
                 spec.drivers, spec.lockstep ? "lockstep" : "freerun",
                 spec.tcp ? "tcp" : "inproc", plan.digest().c_str());
    if (plan_only) {
      std::printf("{\n  \"schedule_digest\": \"%s\"\n}\n",
                  plan.digest().c_str());
      return 0;
    }
    const auto report = engine.run();
    std::printf("%s\n", report.to_json().c_str());
    std::fprintf(stderr,
                 "done: %.0f flows/s, attack window p99 %.2fs, "
                 "staleness p99 %llums, cache hit rate %.3f, "
                 "wrong verdicts %llu, rpc errors %llu\n",
                 report.flows_per_s, report.attack_window_p99_s,
                 static_cast<unsigned long long>(report.staleness_p99_ms),
                 report.cache_hit_rate,
                 static_cast<unsigned long long>(report.wrong_verdict),
                 static_cast<unsigned long long>(report.rpc_errors));
    return report.wrong_verdict == 0 && report.decode_errors == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ritm_scenario: %s\n", e.what());
    return 2;
  }
}
