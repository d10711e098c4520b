// check_cli: run a scenario spec file through the check:: facade with any
// strategy — the command-line face of check(CheckRequest).
//
//   $ check_cli scenarios.spec                    # Strategy::kAuto
//   $ check_cli scenarios.spec --strategy=dfs     # force sequential DFS
//   $ check_cli scenarios.spec --strategy=bfs --threads=8
//   $ check_cli scenarios.spec --strategy=random --runs=500 --seed=7
//   $ check_cli scenarios.spec --minimize --save-viol=corpus/
//   $ check_cli scenarios.spec --progress         # live stderr heartbeat
//   $ check_cli scenarios.spec --trace-out=trace.json --metrics-out=m.jsonl
//   $ check_cli corpus/register_race.viol         # replay a violation file
//   $ check_cli --list                            # grammar + obs vocabulary
//   $ check_cli one.spec --checkpoint-out=run.ckpt --checkpoint-every=10000
//   $ check_cli one.spec --resume=run.ckpt --checkpoint-out=run.ckpt
//   $ check_cli one.spec --fault-inject=die@batch=50   # deterministic faults
//
// Each line of the spec file describes one scenario (see
// examples/scenarios/default.spec for the grammar; algo= selects the
// construction, properties=/k= the typed property set, time_limit=/mem_limit=
// the resource-sentinel budgets). `--list` prints the vocabulary spec authors
// need: every zoo type name, the algo= values, the property names, the budget
// keys, and the strategies. A `.viol` argument instead replays one persisted
// violation (check/violation_io.hpp) and verifies it still reproduces the
// recorded typed property. On violations, --minimize greedily shrinks the
// schedule (check/minimize.hpp) before printing/saving, and --save-viol=DIR
// persists each violation as DIR/<scenario>.viol.
//
// Exit-code contract (pinned by tests/cli/exit_code_test.cpp):
//   0 = every scenario clean (or, for a .viol input, the violation reproduced)
//   1 = a property violation was found (or a .viol failed to reproduce);
//       takes precedence over truncation
//   2 = bad usage or invalid input (unparsable spec, unknown flag, corrupt or
//       mismatched checkpoint without --resume-or-fresh, bad fault plan)
//   3 = no violation, but at least one scenario was truncated (visited cap,
//       time/memory sentinel, watchdog, or forced stop — the verdict names
//       the reason); the verdict is incomplete, not a proof
//
// Crash-recoverable checking: --checkpoint-out=F writes a durable checkpoint
// (temp file + rename, CRC-framed) at exit and — with --checkpoint-every=N —
// every N further visited states; --resume=F seeds the run from F (the
// scenario line and config hash must match, else exit 2), while
// --resume-or-fresh=F falls back to a fresh run when F is missing or corrupt.
// Checkpointing needs a single-scenario spec file and a draining exhaustive
// strategy (auto/bfs; a checkpointing run skips the sequential DFS phase). --fault-inject=PLAN arms the deterministic fault
// harness (engine/fault_inject.hpp: alloc|stall|stop|die|trunc at
// batch|intern|ckpt-write).
//
// Observability (obs/session.hpp): --progress prints a rate-limited stderr
// heartbeat (states/s, frontier size, dedup rate, ETA vs budget),
// --trace-out=F exports phase + worker spans as Chrome trace-event JSON
// (load F in https://ui.perfetto.dev), --metrics-out=F streams periodic
// JSONL registry snapshots, --obs-interval-ms=N tunes the sampler period.
// The written trace is self-validated (obs::validate_chrome_trace); an
// invalid or unwritable trace exits 2. `--list` also prints every documented
// metric and span name.
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "check/check.hpp"
#include "check/minimize.hpp"
#include "check/scenario_spec.hpp"
#include "check/spec_system.hpp"
#include "check/violation_io.hpp"
#include "engine/checkpoint.hpp"
#include "engine/fault_inject.hpp"
#include "obs/session.hpp"
#include "sim/replay.hpp"
#include "typesys/zoo.hpp"
#include "util/table.hpp"

namespace {

using namespace rcons;

struct CliOptions {
  std::string input_file;
  check::Strategy strategy = check::Strategy::kAuto;
  int num_threads = 0;
  int runs = 200;
  std::uint64_t seed = 1;
  bool show_trace = false;
  bool minimize = false;
  bool list = false;
  std::string save_viol_dir;
  bool progress = false;
  std::string trace_out;
  std::string metrics_out;
  int obs_interval_ms = 500;
  std::string checkpoint_out;
  std::uint64_t checkpoint_every = 0;
  std::string resume_path;
  bool resume_or_fresh = false;
  std::string fault_plan_text;
  int sentinel_interval_ms = 50;
  int watchdog_stall_intervals = 0;
};

bool parse_args(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--strategy=", 0) == 0) {
      const std::string name = arg.substr(11);
      if (name == "auto") {
        options.strategy = check::Strategy::kAuto;
      } else if (name == "dfs") {
        options.strategy = check::Strategy::kSequentialDFS;
      } else if (name == "bfs") {
        options.strategy = check::Strategy::kParallelBFS;
      } else if (name == "random") {
        options.strategy = check::Strategy::kRandomized;
      } else {
        std::cerr << "unknown strategy '" << name << "' (auto|dfs|bfs|random)\n";
        return false;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.num_threads = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--runs=", 0) == 0) {
      options.runs = std::atoi(arg.c_str() + 7);
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--trace") {
      options.show_trace = true;
    } else if (arg == "--minimize") {
      options.minimize = true;
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg.rfind("--save-viol=", 0) == 0) {
      options.save_viol_dir = arg.substr(12);
    } else if (arg == "--progress") {
      options.progress = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      options.trace_out = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      options.metrics_out = arg.substr(14);
    } else if (arg.rfind("--obs-interval-ms=", 0) == 0) {
      options.obs_interval_ms = std::atoi(arg.c_str() + 18);
      if (options.obs_interval_ms <= 0) {
        std::cerr << "--obs-interval-ms needs a positive integer\n";
        return false;
      }
    } else if (arg.rfind("--checkpoint-out=", 0) == 0) {
      options.checkpoint_out = arg.substr(17);
      if (options.checkpoint_out.empty()) {
        std::cerr << "--checkpoint-out needs a file path\n";
        return false;
      }
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      options.checkpoint_every = std::strtoull(arg.c_str() + 19, nullptr, 10);
      if (options.checkpoint_every == 0) {
        std::cerr << "--checkpoint-every needs a positive state count\n";
        return false;
      }
    } else if (arg.rfind("--resume=", 0) == 0) {
      options.resume_path = arg.substr(9);
      options.resume_or_fresh = false;
      if (options.resume_path.empty()) {
        std::cerr << "--resume needs a checkpoint path\n";
        return false;
      }
    } else if (arg.rfind("--resume-or-fresh=", 0) == 0) {
      options.resume_path = arg.substr(18);
      options.resume_or_fresh = true;
      if (options.resume_path.empty()) {
        std::cerr << "--resume-or-fresh needs a checkpoint path\n";
        return false;
      }
    } else if (arg.rfind("--watchdog=", 0) == 0) {
      options.watchdog_stall_intervals = std::atoi(arg.c_str() + 11);
      if (options.watchdog_stall_intervals <= 0) {
        std::cerr << "--watchdog needs a positive interval count\n";
        return false;
      }
    } else if (arg.rfind("--sentinel-interval-ms=", 0) == 0) {
      options.sentinel_interval_ms = std::atoi(arg.c_str() + 23);
      if (options.sentinel_interval_ms <= 0) {
        std::cerr << "--sentinel-interval-ms needs a positive integer\n";
        return false;
      }
    } else if (arg.rfind("--fault-inject=", 0) == 0) {
      options.fault_plan_text = arg.substr(15);
      if (options.fault_plan_text.empty()) {
        std::cerr << "--fault-inject needs a plan (e.g. die@batch=50)\n";
        return false;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option " << arg << "\n";
      return false;
    } else if (options.input_file.empty()) {
      options.input_file = arg;
    } else {
      std::cerr << "unexpected argument " << arg << "\n";
      return false;
    }
  }
  if (options.input_file.empty() && !options.list) {
    std::cerr << "usage: check_cli <scenario-file|violation.viol>\n"
                 "                 [--strategy=auto|dfs|bfs|random] [--threads=N]\n"
                 "                 [--runs=R] [--seed=S] [--trace] [--minimize]\n"
                 "                 [--save-viol=DIR]\n"
                 "                 [--progress] [--trace-out=FILE.json]\n"
                 "                 [--metrics-out=FILE.jsonl] [--obs-interval-ms=N]\n"
                 "                 [--checkpoint-out=FILE.ckpt] [--checkpoint-every=N]\n"
                 "                 [--resume=FILE.ckpt | --resume-or-fresh=FILE.ckpt]\n"
                 "                 [--fault-inject=action@site=N]\n"
                 "                 [--sentinel-interval-ms=N] [--watchdog=INTERVALS]\n"
                 "       check_cli --list   # spec grammar + observability vocabulary\n";
    return false;
  }
  if (options.checkpoint_every != 0 && options.checkpoint_out.empty()) {
    std::cerr << "--checkpoint-every needs --checkpoint-out=FILE\n";
    return false;
  }
  return true;
}

// The spec-grammar vocabulary: everything a `.spec` author can write without
// reading source code.
int print_list() {
  std::cout << "zoo types (type=...):\n";
  for (const typesys::ZooEntry& entry : typesys::make_zoo(5)) {
    std::cout << "  " << entry.type->name() << "\n";
  }
  std::cout << "  (Tn(k) / Sn(k) take any family size k >= 2)\n";

  std::cout << "\nalgorithms (algo=...):\n"
            << "  team            Figure 2 recoverable team consensus (default;\n"
            << "                  needs an n-recording type)\n"
            << "  halting         Ruppert halting-model tournament (crash-unsafe)\n"
            << "  naive-register  write-then-read register race (race-unsafe)\n"
            << "  k-set           k-group split consensus; needs k=<int>, 2 <= k <= n\n";

  std::cout << "\nproperties (properties=comma,separated,list; default "
            << sim::PropertySet().label() << "):\n";
  for (const sim::PropertyKind kind :
       {sim::PropertyKind::kAgreement, sim::PropertyKind::kKSetAgreement,
        sim::PropertyKind::kValidity, sim::PropertyKind::kWaitFreedom,
        sim::PropertyKind::kAtMostOnceDecide}) {
    std::cout << "  " << sim::property_name(kind);
    if (kind == sim::PropertyKind::kKSetAgreement) std::cout << " (needs k=<int>)";
    std::cout << "\n";
  }

  std::cout << "\nbudget keys (per scenario line; -1/absent = inherit):\n"
            << "  max_steps=N    per-run wait-freedom bound\n"
            << "  max_visited=N  visited-state cap (typed TRUNCATED verdict)\n"
            << "  time_limit=N   wall-clock budget in ms (resource sentinel;\n"
            << "                 typed TRUNCATED(deadline) verdict, exit 3)\n"
            << "  mem_limit=N    resident-set budget in MiB (TRUNCATED(memory))\n";

  std::cout << "\nstrategies (--strategy=...):\n"
            << "  auto | dfs | bfs | random (plus .viol replay via a file argument)\n";

  std::cout << "\nexit codes:\n"
            << "  0 clean   1 violation   2 invalid input   3 truncated\n";

  std::cout << "\nmetrics (--metrics-out / --progress / CheckReport.metrics):\n";
  for (const obs::NameDoc& doc : obs::metric_names()) {
    std::cout << "  " << doc.name << "  " << doc.doc << "\n";
  }
  std::cout << "\nspans (--trace-out):\n";
  for (const obs::NameDoc& doc : obs::span_names()) {
    std::cout << "  " << doc.name << "  " << doc.doc << "\n";
  }
  return 0;
}

std::string sanitize_filename(std::string name) {
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '-' && ch != '.') {
      ch = '_';
    }
  }
  return name;
}

check::Budget spec_budget(const check::ScenarioSpec& spec) {
  check::Budget budget;
  budget.crash_model = spec.crash_model;
  budget.crash_budget = spec.crash_budget;
  if (spec.max_steps_per_run >= 0) budget.max_steps_per_run = spec.max_steps_per_run;
  if (spec.max_visited >= 0) budget.max_visited = spec.max_visited;
  if (spec.time_limit_ms >= 0) budget.time_limit_ms = spec.time_limit_ms;
  if (spec.mem_limit_mb >= 0) budget.mem_limit_mb = spec.mem_limit_mb;
  return budget;
}

// The identity a checkpoint's config hash covers, rebuilt exactly the way
// check::check() builds the explorer config (so the CLI can reject a
// mismatched resume gracefully instead of tripping the engine's assert).
std::uint64_t spec_config_hash(const check::ScenarioSystem& system,
                               const check::Budget& budget) {
  sim::ExplorerConfig config;
  static_cast<check::Budget&>(config) = budget;
  config.properties = system.properties;
  config.symmetry_classes = system.symmetry_classes;
  return engine::checkpoint_config_hash(config);
}

// Replays one persisted violation file and reports whether it reproduces.
int replay_violation_file(const CliOptions& options, obs::Hooks hooks) {
  const check::ViolationParse parse = check::load_violation_file(options.input_file);
  if (!parse.ok()) {
    for (const std::string& error : parse.errors) std::cerr << error << "\n";
    return 2;
  }
  const check::ViolationFile& file = *parse.file;

  check::CheckRequest request;
  request.system = check::build_spec_system(file.scenario);
  request.budget = spec_budget(file.scenario);
  request.strategy = check::Strategy::kReplay;
  request.schedule = file.schedule;
  request.obs = hooks;
  const check::CheckReport report = check::check(std::move(request));

  std::cout << check::spec_display_name(file.scenario) << ": ";
  if (report.violation.has_value() && report.violation->property == file.property) {
    std::cout << "violation reproduced (" << report.violation->description << ")\n";
    return 0;
  }
  std::cout << "violation did NOT reproduce (expected "
            << sim::property_name(file.property) << ")\n";
  return 1;
}

// Runs every scenario of a spec file; returns the process exit code.
int run_spec_file(const CliOptions& options, obs::Hooks hooks) {
  check::ScenarioParse parse;
  {
    obs::Span span(hooks.tracer, 0, "spec_parse");
    parse = check::load_scenario_file(options.input_file);
  }
  if (!parse.ok()) {
    for (const std::string& error : parse.errors) std::cerr << error << "\n";
    return 2;
  }

  const bool checkpointing =
      !options.checkpoint_out.empty() || !options.resume_path.empty();
  if (checkpointing) {
    if (parse.specs.size() != 1) {
      std::cerr << "checkpoint/resume needs a spec file with exactly one "
                   "scenario, got "
                << parse.specs.size() << "\n";
      return 2;
    }
    if (options.strategy != check::Strategy::kAuto &&
        options.strategy != check::Strategy::kParallelBFS) {
      std::cerr << "checkpoint/resume needs --strategy=auto or bfs (a "
                   "checkpointing run has no sequential DFS phase)\n";
      return 2;
    }
  }

  engine::FaultPlan fault_plan;
  bool have_fault = false;
  if (!options.fault_plan_text.empty()) {
    std::string error;
    if (!engine::parse_fault_plan(options.fault_plan_text, fault_plan, error)) {
      std::cerr << error << "\n";
      return 2;
    }
    have_fault = true;
  }

  engine::CheckpointData resume_data;
  bool have_resume = false;
  if (!options.resume_path.empty()) {
    std::string error;
    const engine::CheckpointLoad load =
        engine::load_checkpoint(options.resume_path, resume_data, error);
    if (load == engine::CheckpointLoad::kOk) {
      have_resume = true;
    } else if (options.resume_or_fresh) {
      std::cerr << "resume: " << error << " — starting fresh\n";
    } else {
      std::cerr << "resume: " << error << "\n";
      return 2;
    }
  }

  if (hooks.metrics != nullptr) {
    hooks.metrics->gauge("portfolio.scenarios_total")
        .set(static_cast<std::int64_t>(parse.specs.size()));
  }

  util::Table table(
      {"scenario", "strategy", "verdict", "visited", "runs", "time(s)"});
  int violations = 0;
  int truncations = 0;
  std::size_t scenario_index = 0;
  for (const check::ScenarioSpec& spec : parse.specs) {
    scenario_index += 1;
    if (hooks.metrics != nullptr) {
      // Per-scenario counters, same contract as Portfolio::run_all(): clear
      // the previous scenario's totals, keep the portfolio.* gauges.
      hooks.metrics->reset("check.");
      hooks.metrics->reset("engine.");
      hooks.metrics->reset("store.");
      hooks.metrics->reset("random.");
      hooks.metrics->reset("replay.");
      hooks.metrics->gauge("portfolio.scenario_index")
          .set(static_cast<std::int64_t>(scenario_index));
    }
    check::CheckRequest request;
    request.system = check::build_spec_system(spec);
    request.budget = spec_budget(spec);
    request.strategy = options.strategy;
    request.num_threads = options.num_threads;
    request.runs = options.runs;
    request.seed = options.seed;
    request.obs = hooks;
    request.sentinel_interval_ms = options.sentinel_interval_ms;
    request.watchdog_stall_intervals = options.watchdog_stall_intervals;
    if (have_fault) request.fault = &fault_plan;
    if (checkpointing) {
      request.checkpoint_path = options.checkpoint_out;
      request.checkpoint_every = options.checkpoint_every;
      request.checkpoint_label = check::format_scenario_line(spec);
      if (have_resume) {
        // Reject a checkpoint from a different scenario or config before the
        // engine ever sees it — a human-readable label diff plus the exact
        // config hash the checkpoint was written under.
        if (resume_data.label != request.checkpoint_label) {
          std::cerr << "resume: checkpoint is from a different scenario\n"
                    << "  checkpoint: " << resume_data.label << "\n"
                    << "  requested:  " << request.checkpoint_label << "\n";
          return 2;
        }
        if (resume_data.config_hash !=
            spec_config_hash(request.system, request.budget)) {
          std::cerr << "resume: checkpoint config hash mismatch (different "
                       "budget/properties/symmetry)\n";
          return 2;
        }
        request.resume = &resume_data;
      }
    }

    // minimize/save need a pristine copy after check() consumes the request.
    const check::ScenarioSystem pristine =
        (options.minimize || !options.save_viol_dir.empty())
            ? request.system
            : check::ScenarioSystem{};
    const check::Budget budget = request.budget;

    const check::CheckReport report = check::check(std::move(request));

    const std::string name = check::spec_display_name(spec);
    std::ostringstream time;
    time.precision(3);
    time << std::fixed << report.seconds;
    // A report can be both truncated and violating (the parallel engine keeps
    // the best violation found before the stop); a real property violation
    // always wins — in the verdict column and in the exit code.
    const bool real_violation =
        report.violation.has_value() &&
        report.violation->property != sim::PropertyKind::kNone;
    std::string verdict = "clean";
    if (real_violation) {
      verdict = std::string("VIOLATION(") +
                sim::property_name(report.violation->property) + ")";
    } else if (report.stats.truncated) {
      verdict = std::string("TRUNCATED(") +
                sim::stop_reason_name(report.stats.stop_reason) + ")";
      truncations += 1;
      if (report.violation.has_value()) {
        std::cerr << name << ": " << report.violation->description << "\n";
      }
    }
    table.add_row({name, check::strategy_name(report.strategy), verdict,
                   std::to_string(report.stats.visited), std::to_string(report.runs),
                   time.str()});
    if (real_violation) {
      violations += 1;
      sim::Violation violation = *report.violation;
      if (options.minimize) {
        obs::Span span(hooks.tracer, 0, "minimize");
        const check::MinimizeResult minimized =
            check::minimize(pristine, budget, violation);
        std::cerr << name << ": minimized " << minimized.original_events << " -> "
                  << minimized.violation.schedule.size() << " events ("
                  << minimized.replays << " replays)\n";
        violation = minimized.violation;
      }
      std::cerr << name << ": " << violation.description << "\n";
      if (options.show_trace) {
        std::cerr << "  schedule: " << violation.trace() << "\n";
      }
      if (!options.save_viol_dir.empty() &&
          violation.property != sim::PropertyKind::kNone) {
        // A corpus file must honour the replay contract; schedules found
        // under symmetry reduction are only valid up to a class permutation
        // and may not reproduce — verify before persisting.
        const sim::ReplayReport replayed =
            sim::replay(pristine.memory, pristine.processes, violation.schedule,
                        pristine.properties, budget.max_steps_per_run);
        if (!replayed.violation.has_value() ||
            replayed.violation->property != violation.property) {
          std::cerr << name << ": schedule does not replay (symmetry-reduced "
                       "counterexample?) — not saved\n";
        } else {
          check::ViolationFile file;
          file.scenario = spec;
          file.property = violation.property;
          file.property_param = violation.property_param;
          file.description = violation.description;
          file.schedule = violation.schedule;
          const std::string path =
              options.save_viol_dir + "/" + sanitize_filename(name) + ".viol";
          if (check::save_violation_file(path, file)) {
            std::cerr << name << ": saved " << path << "\n";
          } else {
            std::cerr << name << ": could not write " << path << "\n";
          }
        }
      }
    }
  }
  table.print(std::cout);
  std::cout << "\n"
            << parse.specs.size() - static_cast<std::size_t>(violations) -
                   static_cast<std::size_t>(truncations)
            << "/" << parse.specs.size() << " scenarios clean";
  if (truncations != 0) std::cout << " (" << truncations << " truncated)";
  std::cout << ".\n";
  // Exit contract: violations dominate truncations (a found bug is a found
  // bug even if the search also hit a budget).
  if (violations != 0) return 1;
  return truncations != 0 ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_args(argc, argv, options)) return 2;
  if (options.list) return print_list();

  obs::SessionOptions session_options;
  session_options.progress = options.progress;
  session_options.trace_out = options.trace_out;
  session_options.metrics_out = options.metrics_out;
  session_options.interval_ms = options.obs_interval_ms;
  std::optional<obs::Session> session;
  if (session_options.any_enabled()) session.emplace(std::move(session_options));
  const obs::Hooks hooks = session.has_value() ? session->hooks() : obs::Hooks{};

  int exit_code;
  if (options.input_file.size() > 5 &&
      options.input_file.rfind(".viol") == options.input_file.size() - 5) {
    exit_code = replay_violation_file(options, hooks);
  } else {
    exit_code = run_spec_file(options, hooks);
  }

  if (session.has_value()) {
    std::string error;
    if (!session->finish(&error)) {
      std::cerr << "obs: " << error << "\n";
      return 2;
    }
    if (!options.trace_out.empty()) {
      // Self-check the exported trace so a broken trace fails loudly here
      // rather than silently in a viewer (CI relies on this exit code).
      std::ifstream in(options.trace_out);
      if (!in.is_open()) {
        std::cerr << "obs: cannot reopen trace file " << options.trace_out << "\n";
        return 2;
      }
      if (!obs::validate_chrome_trace(in, &error)) {
        std::cerr << "obs: invalid trace " << options.trace_out << ": " << error
                  << "\n";
        return 2;
      }
    }
  }
  return exit_code;
}
