// The paper's §VI composition, end to end: partition a deep CNN into
// PipeDream-style pipeline stages, parallelize each stage's subgraph with
// PaSE, and export the per-stage strategies in the serialization format a
// GShard-style bridge can consume.
//
//   ./pipeline_hybrid [num_devices]
#include <cstdio>
#include <cstdlib>

#include "io/strategy_io.h"
#include "models/models.h"
#include "pipeline/pipeline.h"
#include "search/baselines.h"

using namespace pase;

int main(int argc, char** argv) {
  const i64 p = argc > 1 ? std::atoll(argv[1]) : 16;
  const MachineSpec machine = MachineSpec::gtx1080ti(p);
  const Graph graph = models::vgg16(64);

  DpOptions solver;
  solver.cost_params = CostParams::for_machine(machine);
  PipelineSearchOptions popts;
  popts.stages = 0;  // auto: every power-of-two count dividing p, up to 8
  popts.microbatches = 8;

  const PipelinedSearchResult r =
      find_best_pipelined_strategy(graph, machine, solver, popts);

  std::printf("VGG-16 on %lld GPUs: best partition uses %lld stage(s), %lld "
              "devices each.\n",
              static_cast<long long>(p), static_cast<long long>(r.stages),
              static_cast<long long>(r.devices_per_stage));
  std::printf("Estimated step: %.2f ms pipelined vs %.2f ms pure PaSE.\n\n",
              r.step_seconds * 1e3, r.no_pipeline_seconds * 1e3);

  for (size_t s = 0; s < r.stage_details.size(); ++s) {
    const PipelineStage& stage = r.stage_details[s];
    std::printf("Stage %zu: %zu layers (%s .. %s), compute %.2f ms, "
                "activation handoff %.2f ms\n",
                s + 1, stage.nodes.size(),
                graph.node(stage.nodes.front()).name.c_str(),
                graph.node(stage.nodes.back()).name.c_str(),
                stage.compute_seconds * 1e3, stage.transfer_seconds * 1e3);

    // Export this stage's strategy (keyed by layer names, so it can be
    // applied to the original model definition).
    std::vector<NodeId> remap;
    const Graph sub = induced_subgraph(graph, stage.nodes, remap);
    const std::string text = write_strategy(sub, stage.strategy);
    // Round-trip through the parser as a sanity check before handing the
    // file to an execution framework.
    PASE_CHECK(read_strategy(sub, text).ok);
    std::printf("%s\n", text.c_str());
  }
  return 0;
}
