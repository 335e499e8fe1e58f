#include <gtest/gtest.h>

#include <cstring>

#include "config/config_enum.h"
#include "cost/cost_model.h"
#include "cost/layer_classes.h"
#include "cost/machine.h"
#include "hetero/hetero.h"
#include "models/models.h"
#include "ops/ops.h"
#include "search/baselines.h"
#include "test_util.h"

namespace pase {
namespace {

CostParams unit_params() {
  CostParams p;
  p.r = 1.0;
  return p;
}

TEST(RingAllReduce, Formula) {
  EXPECT_DOUBLE_EQ(ring_all_reduce_bytes(100.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(ring_all_reduce_bytes(100.0, 2), 100.0);
  EXPECT_DOUBLE_EQ(ring_all_reduce_bytes(100.0, 4), 150.0);
  EXPECT_DOUBLE_EQ(ring_all_reduce_bytes(0.0, 8), 0.0);
}

TEST(LayerCost, SerialConfigIsPureCompute) {
  const Node fc = ops::fully_connected("f", 8, 16, 32);
  const CostParams p = unit_params();
  const double cost = layer_cost(fc, Config::ones(3), p);
  EXPECT_DOUBLE_EQ(cost, fc.fwd_flops() * (1.0 + p.bwd_flops_multiplier));
}

TEST(LayerCost, ComputeDividesByDegree) {
  const Node fc = ops::fully_connected("f", 64, 64, 64);
  const CostParams p = unit_params();
  EXPECT_DOUBLE_EQ(layer_flops(fc, Config{4, 1, 1}, p),
                   layer_flops(fc, Config::ones(3), p) / 4.0);
}

TEST(LayerCost, DataParallelPaysGradientAllReduce) {
  const Node fc = ops::fully_connected("f", 64, 64, 64);
  CostParams p = unit_params();
  p.gradient_comm_discount = 1.0;
  const Config dp{8, 1, 1};
  const auto comms = layer_collectives(fc, dp, p);
  ASSERT_EQ(comms.size(), 2u);  // weight + bias gradients
  EXPECT_EQ(comms[0].kind, CollectiveComm::Kind::kGradientAllReduce);
  EXPECT_EQ(comms[0].group, 8);
  EXPECT_DOUBLE_EQ(comms[0].bytes,
                   ring_all_reduce_bytes(64.0 * 64 * 4, 8));
  // The full layer cost includes r x those bytes.
  const double expected = layer_flops(fc, dp, p) +
                          p.r * (comms[0].bytes + comms[1].bytes);
  EXPECT_DOUBLE_EQ(layer_cost(fc, dp, p), expected);
}

TEST(LayerCost, ParameterSplitAvoidsGradientSync) {
  const Node fc = ops::fully_connected("f", 64, 64, 64);
  // Splitting n and c shards every parameter: no replicas, no gradient sync.
  const auto comms = layer_collectives(fc, Config{1, 4, 1}, unit_params());
  for (const auto& c : comms)
    EXPECT_NE(c.kind, CollectiveComm::Kind::kGradientAllReduce);
}

TEST(LayerCost, ReductionSplitPaysPartialSumAllReduce) {
  const Node fc = ops::fully_connected("f", 64, 64, 64);
  const CostParams p = unit_params();
  const auto comms = layer_collectives(fc, Config{1, 1, 8}, p);
  bool found = false;
  for (const auto& c : comms)
    if (c.kind == CollectiveComm::Kind::kReduceAllReduce) {
      found = true;
      EXPECT_EQ(c.group, 8);
      // Output shard = full output (output dims unsplit), both directions.
      EXPECT_DOUBLE_EQ(
          c.bytes, p.fwd_bwd_comm_multiplier *
                       ring_all_reduce_bytes(64.0 * 64 * 4, 8));
    }
  EXPECT_TRUE(found);
}

TEST(LayerCost, HaloOnlyWhenSpatialSplit) {
  const Node conv =
      ops::conv2d("c", 8, 16, 32, 32, 16, 3, 3, /*allow_spatial_split=*/true);
  const CostParams p = unit_params();
  auto has_halo = [&](const Config& c) {
    for (const auto& comm : layer_collectives(conv, c, p))
      if (comm.kind == CollectiveComm::Kind::kHaloExchange) return true;
    return false;
  };
  EXPECT_FALSE(has_halo(Config{8, 1, 1, 1, 1, 1, 1}));
  EXPECT_TRUE(has_halo(Config{1, 1, 4, 1, 1, 1, 1}));
}

TEST(LayerCost, GradientDiscountApplies) {
  const Node fc = ops::fully_connected("f", 64, 64, 64);
  CostParams full = unit_params();
  full.gradient_comm_discount = 1.0;
  CostParams half = unit_params();
  half.gradient_comm_discount = 0.5;
  const Config dp{8, 1, 1};
  const double grad_bytes =
      layer_cost(fc, dp, full) - layer_flops(fc, dp, full);
  EXPECT_NEAR(layer_cost(fc, dp, half),
              layer_flops(fc, dp, half) + 0.5 * grad_bytes, 1e-6);
}

TEST(TransferBytes, ZeroWhenAligned) {
  Graph g;
  g.add_node(ops::fully_connected("a", 64, 64, 64));
  g.add_node(ops::fully_connected("b", 64, 64, 64));
  g.add_edge_named(0, 1, {"b", "n"}, {"b", "c"});
  const CostParams p = unit_params();
  // Producer splits (b=4, n=2); consumer needs (b=4, c=2): aligned.
  EXPECT_DOUBLE_EQ(
      transfer_bytes(g.edge(0), Config{4, 2, 1}, Config{4, 1, 2}, p), 0.0);
  // Identical data-parallel configs are aligned too.
  EXPECT_DOUBLE_EQ(
      transfer_bytes(g.edge(0), Config{8, 1, 1}, Config{8, 1, 1}, p), 0.0);
}

TEST(TransferBytes, MismatchCostsNeedMinusOverlap) {
  Graph g;
  g.add_node(ops::fully_connected("a", 64, 64, 64));
  g.add_node(ops::fully_connected("b", 64, 64, 64));
  g.add_edge_named(0, 1, {"b", "n"}, {"b", "c"});
  const CostParams p = unit_params();
  // Producer data-parallel (b=8); consumer splits c=8: consumer needs
  // 64*(64/8), holds overlap 64/8 * 64/8.
  const double need = 64.0 * 8;
  const double overlap = 8.0 * 8;
  EXPECT_DOUBLE_EQ(
      transfer_bytes(g.edge(0), Config{8, 1, 1}, Config{1, 1, 8}, p),
      (need - overlap) * p.bytes_per_element * p.fwd_bwd_comm_multiplier);
}

TEST(TransferBytes, DirectionAgnostic) {
  // Paper footnote 2: t_x(u,v,phi) = t_x(v,u,phi). Swapping the roles of
  // the two endpoints (shape and dim maps mirrored) gives the same cost
  // when need equals on both sides; here both need the full tensor slices.
  Graph g;
  g.add_node(ops::fully_connected("a", 64, 64, 64));
  g.add_node(ops::fully_connected("b", 64, 64, 64));
  g.add_edge_named(0, 1, {"b", "n"}, {"b", "c"});
  g.add_edge_named(1, 0, {"b", "c"}, {"b", "n"});
  const CostParams p = unit_params();
  const Config c0{4, 2, 1}, c1{2, 1, 4};
  EXPECT_DOUBLE_EQ(transfer_bytes(g.edge(0), c0, c1, p),
                   transfer_bytes(g.edge(1), c1, c0, p));
}

TEST(TransferBytes, UnmappedConsumerDimNeedsFullExtent) {
  Graph g;
  g.add_node(ops::fully_connected("a", 64, 64, 64));
  g.add_node(ops::fully_connected("b", 64, 64, 64));
  g.add_edge_named(0, 1, {"b", "n"}, {"b", ""}, {64, 64});
  const CostParams p = unit_params();
  // Forward: consumer needs all of n even though the producer split it.
  const double fwd_need = 64.0 / 8 * 64;
  const double overlap = 64.0 / 8 * 64 / 8;
  // Backward: the producer side (degree 64) is wider than the consumer
  // (degree 8), so some of its devices hold none of the gradient: full need.
  const double bwd_need = 64.0 / 8 * 64 / 8;
  EXPECT_DOUBLE_EQ(
      transfer_bytes(g.edge(0), Config{8, 8, 1}, Config{8, 1, 1}, p),
      ((fwd_need - overlap) + bwd_need) * p.bytes_per_element);
}

TEST(TransferBytes, SplitClampedByExtent) {
  Graph g;
  g.add_node(ops::fully_connected("a", 64, 64, 64));
  g.add_node(ops::fully_connected("b", 64, 64, 64));
  // Tensor dim of extent 2 mapped to dims that may be split 8 ways.
  g.add_edge(0, 1, {2}, {0}, {0});
  const CostParams p = unit_params();
  const double bytes =
      transfer_bytes(g.edge(0), Config{8, 1, 1}, Config{1, 1, 1}, p);
  // Need = 2, overlap = 2/min(8,2) = 1.
  EXPECT_DOUBLE_EQ(bytes, (2.0 - 1.0) * p.bytes_per_element *
                              p.fwd_bwd_comm_multiplier);
}

TEST(CostModel, EvaluateBreakdownSums) {
  const Graph g = models::alexnet();
  const CostModel cm(g, unit_params());
  const Strategy phi = data_parallel_strategy(g, 8);
  const CostBreakdown b = cm.evaluate(phi);
  EXPECT_GT(b.layer, 0.0);
  EXPECT_GE(b.transfer, 0.0);
  EXPECT_DOUBLE_EQ(b.total(), b.layer + b.transfer);
  EXPECT_DOUBLE_EQ(cm.total_cost(phi), b.total());
}

class DeltaCostSweep : public ::testing::TestWithParam<u64> {};

TEST_P(DeltaCostSweep, DeltaMatchesFullReevaluation) {
  const Graph g = testing::random_graph(6, 3, GetParam());
  ConfigOptions copts;
  copts.max_devices = 8;
  const ConfigCache cache(g, copts);
  CostParams params = unit_params();
  params.r = 100.0;
  const CostModel cm(g, params);
  Rng rng(GetParam() * 77 + 1);

  Strategy phi;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    phi.push_back(cache.at(v)[rng.uniform(cache.at(v).size())]);

  for (int trial = 0; trial < 30; ++trial) {
    const NodeId v =
        static_cast<NodeId>(rng.uniform(static_cast<u64>(g.num_nodes())));
    const Config next = cache.at(v)[rng.uniform(cache.at(v).size())];
    const double before = cm.total_cost(phi);
    const double delta = cm.delta_cost(phi, v, next);
    Strategy changed = phi;
    changed[static_cast<size_t>(v)] = next;
    const double after = cm.total_cost(changed);
    EXPECT_NEAR(delta, after - before, 1e-6 * (1.0 + std::abs(after)));
    phi = changed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaCostSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- Row pricing against the closed forms it replaced.

// transfer_bytes and layer_cost as they were before t_x was computed from
// per-configuration factors, kept verbatim as references: the overlap
// divided by max(cu, cv) per tensor dim, and t_l summed a built list of
// collectives.
double reference_transfer_bytes(const Edge& edge, const Config& src_config,
                                const Config& dst_config,
                                const CostParams& params) {
  double need_u = 1.0;
  double need_v = 1.0;
  double overlap = 1.0;
  for (size_t t = 0; t < edge.shape.size(); ++t) {
    const double extent = static_cast<double>(edge.shape[t]);
    const i32 sd = edge.src_dims[t];
    const i32 dd = edge.dst_dims[t];
    const double cu =
        sd >= 0 ? std::min(static_cast<double>(src_config[sd]), extent) : 1.0;
    const double cv =
        dd >= 0 ? std::min(static_cast<double>(dst_config[dd]), extent) : 1.0;
    need_u *= extent / cu;
    need_v *= extent / cv;
    overlap *= extent / std::max(cu, cv);
  }
  const i64 deg_u = src_config.degree();
  const i64 deg_v = dst_config.degree();
  const double fwd =
      deg_v > deg_u ? need_v : std::max(0.0, need_v - overlap);
  const double bwd =
      deg_u > deg_v ? need_u : std::max(0.0, need_u - overlap);
  return (fwd + bwd) * params.bytes_per_element;
}

double reference_layer_cost(const Node& node, const Config& config,
                            const CostParams& params) {
  if (params.comm) {
    double comm_flops = 0.0;
    for (const CollectiveComm& c : layer_collectives(node, config, params)) {
      const double weight =
          c.kind == CollectiveComm::Kind::kGradientAllReduce
              ? params.gradient_comm_discount
              : 1.0;
      const double seconds =
          c.kind == CollectiveComm::Kind::kHaloExchange
              ? params.comm->halo_exchange_time(c.bytes, c.group)
              : params.comm->collective_time(Collective::kAllReduce,
                                             c.volume_bytes, c.group);
      comm_flops += weight * seconds * params.seconds_to_flops;
    }
    return layer_flops(node, config, params) + comm_flops;
  }
  if (params.heterogeneity_aware()) {
    double comm_flops = 0.0;
    for (const CollectiveComm& c : layer_collectives(node, config, params)) {
      const double weight =
          c.kind == CollectiveComm::Kind::kGradientAllReduce
              ? params.gradient_comm_discount
              : 1.0;
      comm_flops += weight * params.group_r(c.group) * c.bytes;
    }
    return layer_flops(node, config, params) + comm_flops;
  }
  double comm_bytes = 0.0;
  for (const CollectiveComm& c : layer_collectives(node, config, params)) {
    const double weight =
        c.kind == CollectiveComm::Kind::kGradientAllReduce
            ? params.gradient_comm_discount
            : 1.0;
    comm_bytes += weight * c.bytes;
  }
  return layer_flops(node, config, params) + params.r * comm_bytes;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(CostModel, RowPricesMatchClosedFormBitwise) {
  // Every t_x row entry, in both orientations, and every t_l must carry the
  // reference's exact bits — on the plain machine-wide r (1080ti) and the
  // per-group hetero r (mixed_pod), in the paper's space and with every
  // split class open, at p = 8 and 64 and with split factors that are not
  // powers of two (p = 12; dividing by a power of two is exact, so only
  // those factors tell a division from a multiply by the reciprocal).
  // Prices depend on a node or edge only through its LayerClasses class,
  // so one member per class covers the graph.
  struct Space {
    i64 p;
    bool powers_of_two;
  };
  const std::vector<std::string> zoo = {
      "alexnet",  "inception_v3", "rnnlm",          "transformer",
      "densenet", "resnet50",     "vgg16",          "mobilenet_v1",
      "gnmt",     "mlp",          "resnet_large_p", "transformer_pipelined",
      "transformer_stack_2"};
  u64 entries = 0;
  for (const std::string& model : zoo) {
    const Graph g = *models::zoo_graph(model);
    for (const Space space :
         {Space{8, true}, Space{64, true}, Space{12, false}})
      for (const char* split : {"batch,param", "all"})
        for (const char* machine : {"1080ti", "mixed_pod"}) {
          const std::string where =
              model + " p=" + std::to_string(space.p) +
              (space.powers_of_two ? " " : " (any factors) ") + split + " " +
              machine;
          ConfigOptions opts;
          opts.max_devices = space.p;
          opts.powers_of_two_only = space.powers_of_two;
          opts.split_dims = *parse_split_dims(split);
          const ConfigCache configs(g, opts);
          const LayerClasses classes(g, configs);
          const MachineSpec m = *machine_preset(machine, space.p);
          const CostParams params = hetero_cost_params(m);
          ASSERT_EQ(params.heterogeneity_aware(),
                    std::string(machine) == "mixed_pod");

          // `what` names the first mismatch; it is only called for that one.
          u64 mismatches = 0;
          std::string first;
          auto check = [&](double got, double want, auto&& what) {
            ++entries;
            if (!same_bits(got, want) && mismatches++ == 0) first = what();
          };
          std::vector<bool> seen(
              static_cast<size_t>(classes.num_edge_classes()), false);
          std::vector<double> table, row;
          for (const Edge& e : g.edges()) {
            if (seen[classes.edge_class(e.id)]) continue;
            seen[classes.edge_class(e.id)] = true;
            const auto& src = configs.at(e.src);
            const auto& dst = configs.at(e.dst);
            const TransferFactors fs(e, true, src, params);
            const TransferFactors fd(e, false, dst, params);
            auto edge_name = [&] { return "edge " + std::to_string(e.id); };
            // The consumer's table, row by row (the producer is w) ...
            table.resize(src.size() * dst.size());
            for (size_t cs = 0; cs < src.size(); ++cs) {
              double* const r = table.data() + cs * dst.size();
              transfer_cost_row(fs, cs, fd, false, params, r);
              for (size_t cd = 0; cd < dst.size(); ++cd) {
                const double bytes =
                    reference_transfer_bytes(e, src[cs], dst[cd], params);
                check(r[cd],
                      edge_flop_byte_ratio(params, src[cs], dst[cd]) * bytes,
                      edge_name);
                check(transfer_bytes(e, src[cs], dst[cd], params), bytes,
                      [&] { return "transfer_bytes of " + edge_name(); });
              }
            }
            // ... and the producer's (the consumer is w), entry for entry.
            row.resize(src.size());
            for (size_t cd = 0; cd < dst.size(); ++cd) {
              transfer_cost_row(fd, cd, fs, true, params, row.data());
              for (size_t cs = 0; cs < src.size(); ++cs)
                check(row[cs], table[cs * dst.size() + cd],
                      [&] { return edge_name() + " from its source"; });
            }
          }

          const CostParams auto_params =
              hetero_cost_params(m, CommModelKind::kAuto);
          std::vector<bool> priced(
              static_cast<size_t>(classes.num_node_classes()), false);
          for (const Node& n : g.nodes()) {
            if (priced[classes.node_class(n.id)]) continue;
            priced[classes.node_class(n.id)] = true;
            for (const Config& c : configs.at(n.id))
              for (const CostParams* q : {&params, &auto_params})
                check(layer_cost(n, c, *q), reference_layer_cost(n, c, *q),
                      [&] {
                        return "layer " + n.name + (q->comm ? " (auto)" : "");
                      });
          }
          EXPECT_EQ(mismatches, 0u) << where << ", first at " << first;
        }
  }
  EXPECT_GT(entries, 0u);
}

TEST(Machine, FlopToByteRatio) {
  MachineSpec m;
  m.peak_flops = 10e12;
  m.link_bandwidth = 5e9;
  EXPECT_DOUBLE_EQ(m.flop_to_byte_ratio(), 2000.0);
}

TEST(Machine, PresetsAreSane) {
  const MachineSpec a = MachineSpec::gtx1080ti(32);
  const MachineSpec b = MachineSpec::rtx2080ti(32);
  EXPECT_EQ(a.num_devices, 32);
  EXPECT_EQ(b.num_devices, 32);
  // The paper's key observation: the 2080Ti system has a much lower machine
  // balance (higher FLOPs per byte of bandwidth).
  EXPECT_GT(b.flop_to_byte_ratio(), 2.0 * a.flop_to_byte_ratio());
  EXPECT_GT(b.peak_flops, a.peak_flops);
  EXPECT_LT(b.intra_bw(), a.intra_bw());
}

TEST(Machine, PresetNamesResolveToTheirBuilders) {
  EXPECT_EQ(machine_preset("1080ti", 8)->name, MachineSpec::gtx1080ti(8).name);
  EXPECT_EQ(machine_preset("mixed", 8)->device_flops,
            MachineSpec::mixed_cluster(8).device_flops);
  const MachineSpec pod = *machine_preset("mixed_pod", 16);
  EXPECT_EQ(pod.name, "MixedPod");
  EXPECT_EQ(pod.num_devices, 16);
  EXPECT_EQ(pod.link_tiers.size(), MachineSpec::mixed_pod(16).link_tiers.size());
  for (const MachinePreset& preset : kMachinePresets)
    EXPECT_TRUE(machine_preset(preset.name, 4).has_value()) << preset.name;
  EXPECT_FALSE(machine_preset("abacus", 8).has_value());
  EXPECT_FALSE(machine_preset("1080Ti", 8).has_value());  // names, not labels
}

TEST(Machine, CostParamsInheritMachineKnobs) {
  const MachineSpec m = MachineSpec::rtx2080ti(8);
  const CostParams p = CostParams::for_machine(m);
  EXPECT_DOUBLE_EQ(p.r, m.flop_to_byte_ratio() * m.compute_efficiency);
  EXPECT_DOUBLE_EQ(p.gradient_comm_discount, m.gradient_comm_discount);
}

}  // namespace
}  // namespace pase
