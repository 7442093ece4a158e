// Cluster-fuzz campaign driver.
//
// Generates seed-deterministic FaultPlans and runs them against the four
// protocol engines under mixed Zipf workloads, asserting zero causal-
// consistency violations and post-fault convergence on every run (see
// src/fault/fuzz_runner.hpp for the pass criteria). On failure it prints a
// one-line repro that replays the identical run bit for bit:
//
//   fuzz_campaign --engine pocc --seed 42 --plan-hash 0x...
//
// Usage:
//   fuzz_campaign [--plans N] [--seed BASE] [--engine pocc|scalar_pocc|
//                 ha_pocc|cure|all] [--plan-hash 0xH] [--verify-replay]
//                 [--list] [--duration-us D] [--drain-us D] [--out FILE]
//                 [--dump-failures DIR]
//
// Without --engine, each of BASE..BASE+N-1 seeds runs on every engine.
// Fail-stop crashes restart a fresh engine from the crashed one's snapshot
// image (wal::encode_snapshot / decode_snapshot, the poccd checkpoint
// codec), then replay the peers' backlogged streams.
// --plan-hash makes a single-seed replay fail loudly if the regenerated plan
// does not match the repro (generator drift). --verify-replay runs every
// case twice and requires bit-identical end-state digests. CI runs this
// nightly with a date-derived base seed (see .github/workflows/ci.yml).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fault/fuzz_runner.hpp"

namespace {

using pocc::SystemKind;
using pocc::fault::FuzzCase;
using pocc::fault::FuzzOutcome;

struct Options {
  std::uint64_t plans = 64;
  std::uint64_t base_seed = 1;
  std::vector<SystemKind> engines = {SystemKind::kPocc,
                                     SystemKind::kScalarPocc,
                                     SystemKind::kHaPocc, SystemKind::kCure};
  bool single_engine = false;
  bool verify_replay = false;
  bool list_only = false;
  std::uint64_t expect_plan_hash = 0;  // 0 = not checked
  pocc::Duration duration_us = 600'000;
  pocc::Duration drain_us = 5'000'000;
  std::string out_path;
  std::string dump_dir;
};

std::uint64_t parse_u64(const char* s) {
  return std::strtoull(s, nullptr, 0);  // base 0: accepts 0x... hashes
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--plans") {
      const char* v = need_value("--plans");
      if (v == nullptr) return false;
      opt.plans = parse_u64(v);
    } else if (a == "--seed") {
      const char* v = need_value("--seed");
      if (v == nullptr) return false;
      opt.base_seed = parse_u64(v);
    } else if (a == "--engine") {
      const char* v = need_value("--engine");
      if (v == nullptr) return false;
      if (std::string(v) == "all") continue;  // default set
      const auto k = pocc::parse_system(v);
      if (!k.has_value()) {
        std::fprintf(stderr, "unknown engine '%s'\n", v);
        return false;
      }
      opt.engines = {*k};
      opt.single_engine = true;
    } else if (a == "--plan-hash") {
      const char* v = need_value("--plan-hash");
      if (v == nullptr) return false;
      opt.expect_plan_hash = parse_u64(v);
    } else if (a == "--verify-replay") {
      opt.verify_replay = true;
    } else if (a == "--list") {
      opt.list_only = true;
    } else if (a == "--duration-us") {
      const char* v = need_value("--duration-us");
      if (v == nullptr) return false;
      opt.duration_us = static_cast<pocc::Duration>(parse_u64(v));
    } else if (a == "--drain-us") {
      const char* v = need_value("--drain-us");
      if (v == nullptr) return false;
      opt.drain_us = static_cast<pocc::Duration>(parse_u64(v));
    } else if (a == "--out") {
      const char* v = need_value("--out");
      if (v == nullptr) return false;
      opt.out_path = v;
    } else if (a == "--dump-failures") {
      const char* v = need_value("--dump-failures");
      if (v == nullptr) return false;
      opt.dump_dir = v;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      return false;
    }
  }
  return true;
}

FuzzCase make_case(const Options& opt, SystemKind system,
                   std::uint64_t seed) {
  FuzzCase c;
  c.system = system;
  c.seed = seed;
  c.run_us = opt.duration_us;
  c.drain_us = opt.drain_us;
  return c;
}

void dump_failure(const Options& opt, const FuzzCase& c,
                  const FuzzOutcome& o) {
  if (opt.dump_dir.empty()) return;
  const std::string path = opt.dump_dir + "/fail_" +
                           pocc::system_flag(c.system) + "_seed" +
                           std::to_string(c.seed) + ".txt";
  std::ofstream f(path);
  if (!f) return;
  f << "REPRO: " << pocc::fault::repro_line(c, o) << "\n\n";
  for (const std::string& msg : o.failures) f << "FAILURE: " << msg << "\n";
  f << "\n" << o.plan_text;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;
  if (opt.expect_plan_hash != 0) {
    // A repro line names exactly one case.
    opt.plans = 1;
    if (!opt.single_engine) {
      std::fprintf(stderr, "--plan-hash requires --engine\n");
      return 2;
    }
  }

  std::ofstream out;
  if (!opt.out_path.empty()) out.open(opt.out_path);

  std::uint64_t runs = 0;
  std::uint64_t failures = 0;
  for (std::uint64_t p = 0; p < opt.plans; ++p) {
    const std::uint64_t seed = opt.base_seed + p;
    for (const SystemKind system : opt.engines) {
      const FuzzCase c = make_case(opt, system, seed);
      if (opt.list_only) {
        const pocc::fault::FaultPlan plan = pocc::fault::plan_for_case(c);
        std::printf("engine=%s seed=%llu plan=%s\n%s",
                    pocc::system_flag(system),
                    static_cast<unsigned long long>(seed),
                    pocc::fault::hex64(plan.hash()).c_str(),
                    plan.to_string().c_str());
        continue;
      }
      ++runs;
      FuzzOutcome o = pocc::fault::run_fuzz_case(c);
      if (opt.expect_plan_hash != 0 && o.plan_hash != opt.expect_plan_hash) {
        o.ok = false;
        o.failures.push_back(
            "replay: regenerated plan hash " + pocc::fault::hex64(o.plan_hash) +
            " does not match the repro's " +
            pocc::fault::hex64(opt.expect_plan_hash) +
            " (plan generator drifted; the original schedule is lost)");
      }
      if (opt.verify_replay && o.ok) {
        const FuzzOutcome replay = pocc::fault::run_fuzz_case(c);
        if (replay.digest != o.digest) {
          o.ok = false;
          o.failures.push_back("replay: second run digest " +
                               pocc::fault::hex64(replay.digest) +
                               " != first run " +
                               pocc::fault::hex64(o.digest) +
                               " (nondeterminism in the event loop)");
        }
      }
      std::printf(
          "[%s] engine=%-11s seed=%-6llu plan=%s faults=%llu "
          "ops=%llu checks=%llu recovered=%llu dropped=%llu fallbacks=%llu "
          "digest=%s\n",
          o.ok ? "ok" : "FAIL", pocc::system_flag(system),
          static_cast<unsigned long long>(seed),
          pocc::fault::hex64(o.plan_hash).c_str(),
          static_cast<unsigned long long>(o.faults_injected),
          static_cast<unsigned long long>(o.completed_ops),
          static_cast<unsigned long long>(o.checks_performed),
          static_cast<unsigned long long>(o.versions_recovered),
          static_cast<unsigned long long>(o.messages_dropped),
          static_cast<unsigned long long>(o.session_fallbacks),
          pocc::fault::hex64(o.digest).c_str());
      if (out.is_open()) {
        out << "{\"ok\":" << (o.ok ? "true" : "false") << ",\"engine\":\""
            << pocc::system_flag(system) << "\",\"seed\":" << seed
            << ",\"plan_hash\":\"" << pocc::fault::hex64(o.plan_hash)
            << "\",\"ops\":" << o.completed_ops
            << ",\"checks\":" << o.checks_performed
            << ",\"faults\":" << o.faults_injected
            << ",\"recovered\":" << o.versions_recovered
            << ",\"dropped\":" << o.messages_dropped
            << ",\"fallbacks\":" << o.session_fallbacks << ",\"digest\":\""
            << pocc::fault::hex64(o.digest) << "\"}\n";
      }
      if (!o.ok) {
        ++failures;
        for (const std::string& msg : o.failures) {
          std::printf("    FAILURE: %s\n", msg.c_str());
        }
        std::printf("    REPRO: %s\n", pocc::fault::repro_line(c, o).c_str());
        dump_failure(opt, c, o);
      }
    }
  }
  if (!opt.list_only) {
    std::printf("fuzz campaign: %llu run(s), %llu failure(s)\n",
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(failures));
  }
  return failures == 0 ? 0 : 1;
}
