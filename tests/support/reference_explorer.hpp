// Test-only reference explorer: the oracle tests/engine/differential_test.cpp
// checks the production explorers against.
//
// It is the plainest exhaustive search that shares the production
// explorers' step semantics (engine/expand.hpp: make_root, enumerate_events,
// apply_event) and nothing else: a single-threaded recursive DFS over cloned
// engine::Nodes, deduplicated on the *full* canonical encoding
// (engine::encode_node) in an ordered std::set. There is no fingerprint, no
// hash table, no NodeStore, no codec, no thread and no symmetry reduction, so
// a fingerprint collision, a record round-trip bug, or a state lost or
// double-counted by the concurrent dedup shows up as a count mismatch.
//
// Like the production explorers, the first path to reach a state fixes its
// per-run step counts (Node::steps_in_run is not part of the dedup key), and
// the root is deduplicated but not counted as visited.
#ifndef RCONS_TESTS_SUPPORT_REFERENCE_EXPLORER_HPP
#define RCONS_TESTS_SUPPORT_REFERENCE_EXPLORER_HPP

#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "engine/expand.hpp"
#include "sim/explorer_config.hpp"

namespace rcons::test {

struct ReferenceResult {
  std::optional<sim::Violation> violation;
  std::uint64_t visited = 0;
  std::uint64_t transitions = 0;
  std::uint64_t decisions = 0;
  std::uint64_t terminal_states = 0;
  std::uint64_t violation_edges = 0;
};

// What the search does on a violating edge:
//   kStop  — return at once, like the engine's sequential phase: the
//            reported schedule is the first violation in DFS event order;
//   kDrain — never expand the edge but keep exploring, like the engine's
//            parallel phase: the counts cover the whole graph and the
//            reported schedule is the lowest (engine::path_less) found.
enum class OnViolation { kStop, kDrain };

class ReferenceExplorer {
 public:
  ReferenceExplorer(sim::ExplorerConfig config, OnViolation mode)
      : config_(std::move(config)), mode_(mode) {}

  ReferenceResult run(const sim::Memory& memory,
                      const std::vector<sim::Process>& processes) {
    result_ = ReferenceResult{};
    visited_.clear();
    path_.clear();
    const engine::Node root = engine::make_root(memory, processes, config_.properties);
    insert(root);
    dfs(root);
    return result_;
  }

 private:
  // True when `node` was not seen before.
  bool insert(const engine::Node& node) {
    std::vector<typesys::Value> key;
    engine::encode_node(node, key);
    return visited_.insert(std::move(key)).second;
  }

  // Returns true when the search must stop (kStop found a violation).
  bool dfs(const engine::Node& node) {
    std::vector<engine::Event> events;
    engine::enumerate_events(node, config_, events);
    if (engine::is_terminal(node)) result_.terminal_states += 1;
    for (const engine::Event& event : events) {
      result_.transitions += 1;
      engine::Node child = node;
      path_.push_back(event);
      if (auto broken = engine::apply_event(child, event, config_)) {
        result_.violation_edges += 1;
        if (!result_.violation.has_value() ||
            engine::path_less(path_, result_.violation->schedule)) {
          result_.violation = sim::Violation{std::move(broken->description),
                                             broken->property, broken->param, path_};
        }
        path_.pop_back();
        if (mode_ == OnViolation::kStop) return true;
        continue;
      }
      if (child.decisions.size() > node.decisions.size()) result_.decisions += 1;
      if (insert(child)) {
        result_.visited += 1;
        if (dfs(child)) return true;
      }
      path_.pop_back();
    }
    return false;
  }

  sim::ExplorerConfig config_;
  OnViolation mode_;
  ReferenceResult result_;
  std::set<std::vector<typesys::Value>> visited_;
  std::vector<engine::Event> path_;
};

}  // namespace rcons::test

#endif  // RCONS_TESTS_SUPPORT_REFERENCE_EXPLORER_HPP
