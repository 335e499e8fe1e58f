#include "core/strategy.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/table.h"
#include "util/types.h"

namespace pase {

bool strategy_valid(const Graph& graph, const Strategy& phi,
                    const ConfigOptions& opts) {
  if (static_cast<i64>(phi.size()) != graph.num_nodes()) return false;
  for (const Node& node : graph.nodes()) {
    const std::vector<Config> space = enumerate_node_configs(node, opts);
    if (std::find(space.begin(), space.end(),
                  phi[static_cast<size_t>(node.id)]) == space.end())
      return false;
  }
  return true;
}

std::string strategy_to_string(const Graph& graph, const Strategy& phi) {
  std::ostringstream os;
  for (const Node& node : graph.nodes())
    os << node.name << "  " << node.space.names() << "  "
       << phi[static_cast<size_t>(node.id)].to_string() << '\n';
  return os.str();
}

std::string strategy_table(const std::string& title, const Graph& graph,
                           const Strategy& phi) {
  TextTable table(title);
  table.set_header({"Layers", "Dimensions", "Configuration"});

  // Collapse maximal runs of nodes sharing dims + configuration.
  i64 run_start = 0;
  auto same = [&](i64 a, i64 b) {
    return graph.node(static_cast<NodeId>(a)).space.names() ==
               graph.node(static_cast<NodeId>(b)).space.names() &&
           phi[static_cast<size_t>(a)] == phi[static_cast<size_t>(b)];
  };
  auto flush = [&](i64 end) {  // [run_start, end)
    const Node& first = graph.node(static_cast<NodeId>(run_start));
    std::string label = first.name;
    if (end - run_start > 1)
      label += " .. " + graph.node(static_cast<NodeId>(end - 1)).name;
    table.add_row({label, first.space.names(),
                   phi[static_cast<size_t>(run_start)].to_string()});
  };
  for (i64 v = 1; v < graph.num_nodes(); ++v) {
    if (!same(run_start, v)) {
      flush(v);
      run_start = v;
    }
  }
  if (graph.num_nodes() > 0) flush(graph.num_nodes());
  return table.to_string();
}

}  // namespace pase
