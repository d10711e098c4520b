// Scenario portfolios: fan a set of {crash model, crash budget, object type,
// process count} model-checking scenarios through the `check::` facade and
// aggregate a verdict table.
//
// A scenario owns a builder that materializes its system (shared memory,
// processes, valid outputs) on demand, so adding a scenario is cheap and a
// portfolio can be re-run. The canned `team_consensus_scenario` family wraps
// the paper's Figure 2 algorithm over any n-recording type from the zoo;
// scenario sets also load from spec files (check/scenario_spec.hpp), and
// arbitrary systems plug in through the builder.
#ifndef RCONS_ENGINE_PORTFOLIO_HPP
#define RCONS_ENGINE_PORTFOLIO_HPP

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/scenario_spec.hpp"
#include "sim/explorer_config.hpp"
#include "sim/memory.hpp"
#include "sim/process.hpp"
#include "util/table.hpp"

namespace rcons::typesys {
class ObjectType;
}

namespace rcons::engine {

using ScenarioSystem = check::ScenarioSystem;

struct Scenario {
  std::string name;
  sim::CrashModel crash_model = sim::CrashModel::kIndependent;
  int crash_budget = 2;
  int num_processes = 0;    // informational, shown in the verdict table
  std::string object_type;  // informational, shown in the verdict table
  // Property set label (sim::PropertySet::label() of the built system),
  // shown in the verdict table so sweeps over mixed property sets stay
  // readable. add()/add_spec fill it; defaults to the classic trio.
  std::string properties_label = sim::PropertySet().label();
  std::int64_t max_steps_per_run = -1;  // -1 = inherit the portfolio budget
  std::int64_t max_visited = -1;
  std::int64_t time_limit_ms = -1;  // -1 = inherit (resource sentinel budgets)
  std::int64_t mem_limit_mb = -1;
  std::function<ScenarioSystem()> build;
};

struct ScenarioResult {
  Scenario scenario;
  bool clean = false;
  check::Strategy strategy = check::Strategy::kAuto;  // backend actually used
  std::optional<sim::Violation> violation;
  sim::ExplorerStats stats;
  double seconds = 0.0;
};

struct PortfolioConfig {
  // crash_model / crash_budget / valid_outputs are per-scenario and
  // overridden; the remaining budget fields apply to every scenario that does
  // not override them.
  check::Budget budget;
  int num_threads = 0;  // per scenario; 0 = hardware concurrency

  // Observability sinks (obs/hooks.hpp), forwarded to every scenario's check.
  // run_all() resets the shared registry's check./engine./store./random./
  // replay.* prefixes between scenarios (so per-scenario counters read per-
  // scenario work) and keeps the portfolio.* gauges current; a tracer gets
  // one "portfolio_scenario" span per scenario.
  obs::Hooks obs;
};

class Portfolio {
 public:
  explicit Portfolio(PortfolioConfig config = {});

  void add(Scenario scenario);

  // Figure 2 recoverable team consensus over `type` with n roles; asserts the
  // type is n-recording. Inputs are fixed, distinct per team, and become the
  // validity set.
  void add_team_consensus(const typesys::ObjectType& type, int n,
                          sim::CrashModel crash_model, int crash_budget);

  // Team-consensus scenario from a parsed spec (file-driven sweeps). The
  // spec's type name must be known to the zoo — load_scenario_file /
  // parse_scenario_specs already validate this, so add_spec asserts.
  void add_spec(const check::ScenarioSpec& spec);
  void add_specs(const std::vector<check::ScenarioSpec>& specs);

  std::size_t size() const { return scenarios_.size(); }

  // Runs every scenario through check() with Strategy::kAuto, in order.
  // Scenarios run one at a time; each one uses all configured threads
  // internally (state spaces dwarf scenario counts, so intra-scenario
  // parallelism wins).
  std::vector<ScenarioResult> run_all() const;

  // Paper-style verdict table: one row per scenario with model, budget,
  // verdict, visited states, and wall time.
  static util::Table verdict_table(const std::vector<ScenarioResult>& results);

 private:
  PortfolioConfig config_;
  std::vector<Scenario> scenarios_;
};

const char* crash_model_name(sim::CrashModel model);

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_PORTFOLIO_HPP
