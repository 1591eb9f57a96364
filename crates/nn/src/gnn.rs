//! Graph neural network layer for DAG-structured inputs.
//!
//! Decima (the paper's CJS baseline, Mao et al. SIGCOMM'19) encodes job DAGs
//! with per-node message passing; the NetLLM multimodal encoder reuses the
//! same GNN family as the graph-modality feature encoder. This module
//! implements a GraphSAGE-style layer: `h' = act(W_self·h + W_agg·(Â·h))`
//! where `Â` is a (degree-normalised) adjacency operator supplied as a dense
//! matrix — our DAGs have at most a few dozen stages, so dense is the simple
//! and robust choice.

use crate::exec::Exec;
use crate::layers::{Init, Linear};
use crate::store::ParamStore;
use nt_tensor::{Rng, Tensor};

/// One message-passing layer.
#[derive(Clone, Debug)]
pub struct GnnLayer {
    pub w_self: Linear,
    pub w_agg: Linear,
}

impl GnnLayer {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        GnnLayer {
            w_self: Linear::new(
                store,
                &format!("{name}.self"),
                in_dim,
                out_dim,
                true,
                Init::Xavier,
                rng,
            ),
            w_agg: Linear::new(
                store,
                &format!("{name}.agg"),
                in_dim,
                out_dim,
                false,
                Init::Xavier,
                rng,
            ),
        }
    }

    /// `h: [sum n_i, in]`, the nodes of the graphs whose adjacency
    /// operators are `adjs` (`[n_i, n_i]`, constant), returns `[sum n_i,
    /// out]` after ReLU. Each graph aggregates its own nodes; the linears
    /// run once over every graph's.
    pub fn run<E: Exec>(&self, e: &mut E, store: &ParamStore, h: E::V, adjs: &[&E::V]) -> E::V {
        let agg = e.block_matmul(adjs, &h);
        let a = e.linear(store, &self.w_agg, &agg);
        let s = e.linear(store, &self.w_self, &h);
        let sum = e.add(&s, &a);
        e.relu(sum)
    }
}

/// A small stack of message-passing layers with a final linear readout.
#[derive(Clone, Debug)]
pub struct Gnn {
    pub layers: Vec<GnnLayer>,
    pub readout: Linear,
}

impl Gnn {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        depth: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(depth >= 1);
        let mut layers = Vec::with_capacity(depth);
        for l in 0..depth {
            let i = if l == 0 { in_dim } else { hidden };
            layers.push(GnnLayer::new(store, &format!("{name}.l{l}"), i, hidden, rng));
        }
        let readout =
            Linear::new(store, &format!("{name}.out"), hidden, out_dim, true, Init::Xavier, rng);
        Gnn { layers, readout }
    }

    /// Per-node embeddings `[sum n_i, out_dim]` of the node features of
    /// one or more graphs, stacked `[sum n_i, in_dim]`, each over its own
    /// adjacency operator `adjs[i]` (`[n_i, n_i]`, which the eager executor
    /// borrows).
    pub fn run<E: Exec>(
        &self,
        e: &mut E,
        store: &ParamStore,
        feats: E::V,
        adjs: &[&Tensor],
    ) -> E::V {
        let adjs: Vec<_> = adjs.iter().map(|a| e.constant(a)).collect();
        let adjs: Vec<&E::V> = adjs.iter().map(|a| a.as_ref()).collect();
        let mut h = feats;
        for layer in &self.layers {
            h = layer.run(e, store, h, &adjs);
        }
        e.linear(store, &self.readout, &h)
    }
}

/// Build the row-normalised adjacency operator (children aggregate from
/// parents) from an edge list over `n` nodes. `edges` are `(parent, child)`
/// pairs; row `i` of the result averages over the parents of node `i`.
pub fn normalized_adjacency(n: usize, edges: &[(usize, usize)]) -> Tensor {
    let mut adj = Tensor::zeros([n, n]);
    let mut indeg = vec![0usize; n];
    for &(p, c) in edges {
        assert!(p < n && c < n, "edge ({p},{c}) out of range {n}");
        *adj.at_mut(&[c, p]) += 1.0;
        indeg[c] += 1;
    }
    for (c, &deg) in indeg.iter().enumerate() {
        if deg > 0 {
            for p in 0..n {
                *adj.at_mut(&[c, p]) /= deg as f32;
            }
        }
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Fwd;

    #[test]
    fn adjacency_rows_average_parents() {
        let a = normalized_adjacency(3, &[(0, 2), (1, 2)]);
        assert_eq!(a.at(&[2, 0]), 0.5);
        assert_eq!(a.at(&[2, 1]), 0.5);
        assert_eq!(a.at(&[0, 1]), 0.0);
    }

    #[test]
    fn gnn_shapes_and_grads() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(1);
        let gnn = Gnn::new(&mut s, "g", 4, 8, 6, 2, &mut rng);
        let mut f = Fwd::eval();
        let feats = f.input(Tensor::randn([5, 4], 1.0, &mut rng));
        let adj = normalized_adjacency(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let out = gnn.run(&mut f, &s, feats, &[&adj]);
        assert_eq!(f.g.value(out).shape(), &[5, 6]);
        let l = f.g.mean_all(out);
        let grads = f.backward(l);
        assert!(!grads.is_empty());
    }

    #[test]
    fn information_propagates_along_edges() {
        // With 2 layers, node 2's embedding must depend on node 0's features
        // through the chain 0 -> 1 -> 2.
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(2);
        let gnn = Gnn::new(&mut s, "g", 2, 8, 4, 2, &mut rng);
        let adj = normalized_adjacency(3, &[(0, 1), (1, 2)]);
        let run = |feat0: f32| {
            let mut f = Fwd::eval();
            let mut feats = Tensor::zeros([3, 2]);
            *feats.at_mut(&[0, 0]) = feat0;
            *feats.at_mut(&[1, 0]) = 1.0;
            *feats.at_mut(&[2, 0]) = 1.0;
            let fi = f.input(feats);
            let out = gnn.run(&mut f, &s, fi, &[&adj]);
            f.g.value(out).row(2).to_vec()
        };
        let a = run(0.0);
        let b = run(5.0);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-6, "2-hop ancestor change must reach node 2");
    }
}
