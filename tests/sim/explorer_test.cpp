// The engine's sequential phase run alone (sequential_limit =
// engine::kSequentialOnly, one worker): the deterministic first-violation
// DFS that the check facade's kSequentialDFS strategy runs.
#include <gtest/gtest.h>

#include "engine/parallel_explorer.hpp"

namespace rcons::sim {
namespace {

engine::ParallelExplorerConfig dfs_config(const ExplorerConfig& base) {
  engine::ParallelExplorerConfig config;
  static_cast<ExplorerConfig&>(config) = base;
  config.num_threads = 1;
  config.sequential_limit = engine::kSequentialOnly;
  return config;
}

// Deliberately broken "consensus": each process writes its input to a shared
// register and decides what it reads afterwards — classic register
// non-solvability, so the explorer must find an agreement violation even
// without crashes.
struct BrokenConsensus {
  RegId reg = 0;
  typesys::Value input = 0;
  int pc = 0;

  StepResult step(Memory& memory) {
    if (pc == 0) {
      memory.write(reg, input);
      pc = 1;
      return StepResult::running();
    }
    return StepResult::decided(memory.read(reg));
  }
  void encode(std::vector<typesys::Value>& out) const { out.push_back(pc); }
  std::size_t decode(const typesys::Value* data, std::size_t) {
    pc = static_cast<int>(data[0]);
    return 1;
  }
};

// Correct one-shot "consensus" for any number of processes using a single
// write-once register guarded by... nothing recoverable, but correct without
// crashes only when every process writes the same value. Used to exercise
// validity checking.
struct ConstantDecider {
  typesys::Value value = 0;
  StepResult step(Memory& memory) {
    (void)memory;
    return StepResult::decided(value);
  }
  void encode(std::vector<typesys::Value>& out) const { out.push_back(0); }
  std::size_t decode(const typesys::Value*, std::size_t) { return 1; }
};

TEST(ExplorerTest, FindsAgreementViolation) {
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(BrokenConsensus{reg, 1, 0});
  processes.emplace_back(BrokenConsensus{reg, 2, 0});
  ExplorerConfig config;
  config.crash_budget = 0;
  config.properties.valid_outputs = {1, 2};
  engine::ParallelExplorer explorer(std::move(memory), std::move(processes),
                                   dfs_config(config));
  const auto violation = explorer.run();
  ASSERT_TRUE(violation.has_value());
  EXPECT_TRUE(explorer.stayed_sequential());
  EXPECT_NE(violation->description.find("agreement"), std::string::npos);
  EXPECT_FALSE(violation->schedule.empty());
  EXPECT_FALSE(violation->trace().empty());
}

TEST(ExplorerTest, FindsValidityViolation) {
  Memory memory;
  std::vector<Process> processes;
  processes.emplace_back(ConstantDecider{99});
  ExplorerConfig config;
  config.properties.valid_outputs = {1, 2};
  config.crash_budget = 0;
  engine::ParallelExplorer explorer(std::move(memory), std::move(processes),
                                   dfs_config(config));
  const auto violation = explorer.run();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->description.find("validity"), std::string::npos);
}

TEST(ExplorerTest, CleanSystemPasses) {
  Memory memory;
  std::vector<Process> processes;
  processes.emplace_back(ConstantDecider{1});
  processes.emplace_back(ConstantDecider{1});
  ExplorerConfig config;
  config.properties.valid_outputs = {1};
  config.crash_budget = 3;
  engine::ParallelExplorer explorer(std::move(memory), std::move(processes),
                                   dfs_config(config));
  EXPECT_FALSE(explorer.run().has_value());
  EXPECT_GT(explorer.stats().visited, 0u);
}

TEST(ExplorerTest, WaitFreedomBoundFlagsLoopers) {
  // A program that never decides: must trip the per-run step bound. Its
  // local state advances every step (all our real algorithms do), which the
  // explorer's deduplication assumes — see DESIGN.md.
  struct Looper {
    RegId reg = 0;
    long count = 0;
    StepResult step(Memory& memory) {
      memory.write(reg, 1);
      count += 1;
      return StepResult::running();
    }
    void encode(std::vector<typesys::Value>& out) const { out.push_back(count); }
    std::size_t decode(const typesys::Value* data, std::size_t) {
      count = static_cast<long>(data[0]);
      return 1;
    }
  };
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(Looper{reg, 0});
  ExplorerConfig config;
  config.crash_budget = 0;
  config.max_steps_per_run = 10;
  engine::ParallelExplorer explorer(std::move(memory), std::move(processes),
                                   dfs_config(config));
  const auto violation = explorer.run();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->description.find("wait-freedom"), std::string::npos);
}

TEST(ExplorerTest, CrashBudgetRespected) {
  // With zero budget, BrokenConsensus run with a single process cannot
  // violate anything; with crash_after_decide it still cannot since no crash
  // moves exist.
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(BrokenConsensus{reg, 1, 0});
  ExplorerConfig config;
  config.crash_budget = 0;
  config.properties.valid_outputs = {1};
  engine::ParallelExplorer explorer(std::move(memory), std::move(processes),
                                   dfs_config(config));
  EXPECT_FALSE(explorer.run().has_value());
}

TEST(ExplorerTest, CrashRerunsProduceMoreDecisions) {
  // One BrokenConsensus process alone stays consistent even across crashes
  // (it re-writes the same input); the explorer must explore the re-runs.
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(BrokenConsensus{reg, 1, 0});
  ExplorerConfig with_crashes;
  with_crashes.crash_budget = 2;
  with_crashes.properties.valid_outputs = {1};
  engine::ParallelExplorer explorer(std::move(memory), std::move(processes),
                                   dfs_config(with_crashes));
  EXPECT_FALSE(explorer.run().has_value());
  ExplorerConfig no_crashes;
  no_crashes.crash_budget = 0;
  no_crashes.properties.valid_outputs = {1};
  Memory memory2;
  const RegId reg2 = memory2.add_register();
  std::vector<Process> processes2;
  processes2.emplace_back(BrokenConsensus{reg2, 1, 0});
  engine::ParallelExplorer baseline(std::move(memory2), std::move(processes2),
                                   dfs_config(no_crashes));
  EXPECT_FALSE(baseline.run().has_value());
  EXPECT_GT(explorer.stats().visited, baseline.stats().visited);
}

TEST(ExplorerTest, SimultaneousModelCrashesEveryone) {
  // Two processes with different inputs and a shared register: under the
  // simultaneous model with budget 1, the explorer still finds the agreement
  // violation (crashes do not mask it).
  Memory memory;
  const RegId reg = memory.add_register();
  std::vector<Process> processes;
  processes.emplace_back(BrokenConsensus{reg, 1, 0});
  processes.emplace_back(BrokenConsensus{reg, 2, 0});
  ExplorerConfig config;
  config.crash_model = CrashModel::kSimultaneous;
  config.crash_budget = 1;
  config.properties.valid_outputs = {1, 2};
  engine::ParallelExplorer explorer(std::move(memory), std::move(processes),
                                   dfs_config(config));
  EXPECT_TRUE(explorer.run().has_value());
}

}  // namespace
}  // namespace rcons::sim
