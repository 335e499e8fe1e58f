// Strategy helpers: validation against the configuration-space rules and
// Table II-style pretty printing.
#pragma once

#include <string>

#include "config/config_enum.h"
#include "graph/graph.h"

namespace pase {

/// True iff `phi` assigns every node a configuration the solver could have
/// chosen: one in enumerate_node_configs(node, opts), so the split-dim
/// gates and the per-configuration filter count along with the rank,
/// power-of-two, extent and degree rules.
bool strategy_valid(const Graph& graph, const Strategy& phi,
                    const ConfigOptions& opts);

/// One line per node: "name  dims  (c1, ..., cd)".
std::string strategy_to_string(const Graph& graph, const Strategy& phi);

/// Table II-style rendering: Layers | Dimensions | Configuration, with
/// consecutive nodes sharing a configuration & dimension signature collapsed
/// into one row ("Conv 1-4" style).
std::string strategy_table(const std::string& title, const Graph& graph,
                           const Strategy& phi);

}  // namespace pase
