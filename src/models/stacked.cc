// Generated N-block decoder-only transformer stack (GPT-style): one
// pre-norm block — LN -> self-attention -> residual add, LN -> feed-forward
// -> residual add — repeated N times between an embedding head and a
// LayerNorm + vocabulary-projection + softmax tail. Every block is
// byte-for-byte structurally identical (same extents, same edge wiring
// offsets), so every block falls into the same CostCache classes and the
// solver prices one 6-node block however large N is. N is capped only by
// memory; the thousand-layer configurations in docs/BENCHMARKS.md use this
// family.
#include "models/models.h"
#include "ops/ops.h"
#include "util/check.h"

namespace pase::models {

namespace {

/// [b, s, d] producer -> consumer; `dst_d` names the consumer dim the model
/// dim maps to ("" = consumer contracts over the full model dim).
EdgeId seq_edge(Graph& g, NodeId src, NodeId dst, const std::string& dst_d) {
  return g.add_edge_named(src, dst, {"b", "s", "d"}, {"b", "s", dst_d});
}

/// Attention output [b, s, h, c] -> [b, s, d] consumer (head-major layout).
EdgeId attn_out_edge(Graph& g, NodeId src, NodeId dst) {
  return g.add_edge_named(src, dst, {"b", "s", "h", "c"},
                          {"b", "s", "d", ""});
}

}  // namespace

Graph transformer_stack(i64 blocks, i64 batch, i64 seq_len, i64 d_model,
                        i64 heads, i64 d_ff, i64 vocab) {
  PASE_CHECK(blocks >= 1);
  PASE_CHECK(d_model % heads == 0);
  const i64 dk = d_model / heads;
  Graph g;

  const NodeId emb =
      g.add_node(ops::embedding("Embed", batch, seq_len, d_model, vocab));
  NodeId x = emb;
  for (i64 i = 1; i <= blocks; ++i) {
    const std::string t = std::to_string(i);
    // Pre-norm: LN feeds attention, the residual skips around both.
    const NodeId ln1 =
        g.add_node(ops::layer_norm("LN1_" + t, batch, seq_len, d_model));
    seq_edge(g, x, ln1, "d");
    const NodeId attn = g.add_node(
        ops::attention("Attn" + t, batch, seq_len, heads, dk, dk, seq_len));
    seq_edge(g, ln1, attn, "");
    const NodeId add1 = g.add_node(
        ops::elementwise_seq("Res1_" + t, batch, seq_len, d_model));
    seq_edge(g, x, add1, "d");
    attn_out_edge(g, attn, add1);

    const NodeId ln2 =
        g.add_node(ops::layer_norm("LN2_" + t, batch, seq_len, d_model));
    seq_edge(g, add1, ln2, "d");
    const NodeId ffn = g.add_node(
        ops::feed_forward("FFN" + t, batch, seq_len, d_model, d_ff));
    seq_edge(g, ln2, ffn, "d");
    const NodeId add2 = g.add_node(
        ops::elementwise_seq("Res2_" + t, batch, seq_len, d_model));
    seq_edge(g, add1, add2, "d");
    seq_edge(g, ffn, add2, "d");
    x = add2;
  }

  const NodeId lnf =
      g.add_node(ops::layer_norm("LNFinal", batch, seq_len, d_model));
  seq_edge(g, x, lnf, "d");
  const NodeId proj =
      g.add_node(ops::projection("FC", batch, seq_len, vocab, d_model));
  seq_edge(g, lnf, proj, "d");
  const NodeId sm =
      g.add_node(ops::softmax_seq("Softmax", batch, seq_len, vocab));
  g.add_edge_named(proj, sm, {"b", "s", "v"}, {"b", "s", "v"});

  g.validate();
  return g;
}

}  // namespace pase::models
