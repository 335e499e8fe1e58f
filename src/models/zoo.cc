// Zoo-by-name lookup shared by the strategy service (`zoo` request field)
// and pase_cli (--zoo). Kept out of the individual model builders so adding
// a model means touching exactly one table.
#include <string>

#include "models/models.h"

namespace pase::models {

namespace {

/// N of a "transformer_stack_<N>" name, N in [1, 100000]. The suffix must be
/// a plain decimal with no leading zero so every accepted name has exactly
/// one spelling (the result cache keys on the name).
std::optional<i64> stack_blocks(const std::string& name) {
  constexpr char kStackPrefix[] = "transformer_stack_";
  if (name.rfind(kStackPrefix, 0) != 0) return std::nullopt;
  const std::string suffix = name.substr(sizeof(kStackPrefix) - 1);
  if (suffix.empty() || suffix.size() > 6 ||
      suffix.find_first_not_of("0123456789") != std::string::npos ||
      suffix[0] == '0')
    return std::nullopt;
  const i64 blocks = std::stoll(suffix);
  if (blocks < 1 || blocks > 100000) return std::nullopt;
  return blocks;
}

}  // namespace

std::optional<i64> zoo_stack_nodes(const std::string& name) {
  const auto blocks = stack_blocks(name);
  if (!blocks) return std::nullopt;
  return 6 * *blocks + 4;
}

std::optional<Graph> zoo_graph(const std::string& name) {
  if (name == "alexnet") return alexnet();
  if (name == "inception_v3") return inception_v3();
  if (name == "rnnlm") return rnnlm();
  if (name == "transformer") return transformer();
  if (name == "densenet") return densenet();
  if (name == "resnet50") return resnet50();
  if (name == "vgg16") return vgg16();
  if (name == "mobilenet_v1") return mobilenet_v1();
  if (name == "gnmt") return gnmt();
  // Small FC chain: cheap-query tests and warm-up probes use this.
  if (name == "mlp") return mlp(32, {256, 256, 128, 64});
  // Widened-space scenarios (ISSUE: spatial/channel + pipeline dims).
  // CNN at large p: batch 16 exhausts the batch axis long before a big
  // cluster does, so spatial/channel splits are the only way to keep
  // scaling — the LBANN motivation (--split-dims spatial,channel).
  if (name == "resnet_large_p") return resnet50(/*batch=*/16);
  // Deep uniform stack with heavier per-block shapes than the generated
  // default: the natural pipelining workload (--pipeline-stages auto).
  if (name == "transformer_pipelined")
    return transformer_stack(/*blocks=*/8, /*batch=*/8, /*seq_len=*/128,
                             /*d_model=*/512, /*heads=*/8, /*d_ff=*/2048,
                             /*vocab=*/16384);
  // Generated N-block GPT-style stacks ("transformer_stack_<N>"): the
  // repeated-structure scaling family (docs/BENCHMARKS.md).
  if (const auto blocks = stack_blocks(name)) return transformer_stack(*blocks);
  return std::nullopt;
}

}  // namespace pase::models
