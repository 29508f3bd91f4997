"""Hybrid-STOP self-attention sublayer.

Self-attention is the second ``y <- x A B`` chain the paper shards
(Sec III-A: ``softmax(Q K^T) V`` plus its projections).  The same
alternating column/row layout as the feed-forward sublayer applies:
``W_q/W_k/W_v`` are *column*-sharded over the tensor-parallel group and
``W_o`` is *row*-sharded, so each rank k owns columns
``[k*D/K, (k+1)*D/K)`` of the projections and the matching rows of the
output projection, with every shard flat-sharded again over its FSDP
group.

Head-count independence.  Megatron-style tensor parallelism cannot use
more ranks than attention heads because each rank must own whole heads.
Hybrid-STOP exploits the chain identity *inside* the head: when
``K > H``, each head's ``d_h`` dimensions are split over ``s = K/H``
ranks, the per-rank partial scores ``Q_k K_k^T`` are summed with an
all-reduce over the ``s``-rank sub-head group (Eqn 2 applied to the
``Q K^T`` chain), softmax runs on the reduced scores, and each rank
multiplies by its ``d_h/s`` value slice.  With ``K <= H`` the sub-head
groups are singletons and the reduction is free, recovering standard
head-parallel attention — one code path covers both regimes.

QK layer normalization (Sec III-B) normalizes over the full head
dimension, which is local only when ranks own whole heads; combining
``qk_layernorm`` with ``K > H`` therefore raises ``NotImplementedError``
(the paper never runs that combination: tensor-parallel degree is at
most 8 in-node while all models have 16-64 heads).
"""

from __future__ import annotations

from repro.cluster.collectives import all_reduce
from repro.core.base import HybridModuleBase
from repro.core.fsdp_ops import reduce_scatter_grads, tensor_parallel_sum
from repro.core.sharding import ShardedParameter, column_shards, register_shards
from repro.nn import functional as F
from repro.nn import ops
from repro.nn.attention import MultiHeadAttention


class HybridSTOPAttention(HybridModuleBase):
    """Multi-head attention distributed with Hybrid-STOP.

    Built from a serial :class:`~repro.nn.attention.MultiHeadAttention`
    for parameter-exact equivalence testing.
    """

    def __init__(
        self,
        serial: MultiHeadAttention,
        plan,
        ddp_index: int = 0,
        prefetch: bool = False,
        compute_model=None,
        name: str = "attn",
    ):
        super().__init__(plan, ddp_index, prefetch, compute_model, name)
        K = plan.tp_size
        self.dim = serial.dim
        self.num_heads = serial.num_heads
        self.head_dim = serial.head_dim
        self.scale = serial.scale
        self.qk_layernorm = serial.qk_layernorm
        if self.dim % K:
            raise ValueError(f"dim {self.dim} not divisible by tensor-parallel size {K}")
        if K <= self.num_heads:
            if self.num_heads % K:
                raise ValueError(
                    f"num_heads {self.num_heads} not divisible by tensor-parallel size {K}"
                )
            self.heads_per_rank = self.num_heads // K
            self.subhead_size = 1
        else:
            if K % self.num_heads:
                raise ValueError(
                    f"tensor-parallel size {K} not divisible by num_heads {self.num_heads}"
                )
            self.subhead_size = K // self.num_heads
            if self.head_dim % self.subhead_size:
                raise ValueError(
                    f"head_dim {self.head_dim} not divisible by sub-head factor "
                    f"{self.subhead_size}"
                )
            if self.qk_layernorm:
                raise NotImplementedError(
                    "qk_layernorm needs whole heads per rank; it cannot be combined "
                    f"with tensor-parallel size {K} > num_heads {self.num_heads}"
                )
            self.heads_per_rank = 1
        self.local_dim = self.dim // K  # columns owned per tensor-parallel rank
        self.local_head_dim = self.local_dim // self.heads_per_rank

        self._params: dict[str, list[ShardedParameter]] = {}
        for pname, weight, bias in (
            ("wq", serial.wq.weight.data, serial.wq.bias.data),
            ("wk", serial.wk.weight.data, serial.wk.bias.data),
            ("wv", serial.wv.weight.data, serial.wv.bias.data),
        ):
            w_shards = column_shards(weight, K)
            b_shards = column_shards(bias, K)
            self._params[pname] = [
                self._shard(w_shards[k], f"{pname}{k}", k) for k in range(K)]
            self._params[f"{pname}_bias"] = [
                self._shard(b_shards[k], f"{pname}_b{k}", k) for k in range(K)]
        # W_o row shards: rows [k*D/K, (k+1)*D/K) == transposed column shards.
        wo_rows = column_shards(ops.swapaxes(serial.wo.weight.data, -1, -2), K)
        self._params["wo"] = [
            self._shard(ops.swapaxes(wo_rows[k], -1, -2), f"wo{k}", k) for k in range(K)]
        self.wo_bias = self._shard(serial.wo.bias.data, "wo_bias")
        if self.qk_layernorm:
            self.ln_q_gamma = self._shard(serial.ln_q.gamma.data, "lnq_g")
            self.ln_q_beta = self._shard(serial.ln_q.beta.data, "lnq_b")
            self.ln_k_gamma = self._shard(serial.ln_k.gamma.data, "lnk_g")
            self.ln_k_beta = self._shard(serial.ln_k.beta.data, "lnk_b")
        register_shards(self.sharded_parameters())
        self.ln_eps = serial.ln_q.eps if self.qk_layernorm else 1e-5
        self._subhead_groups: dict[int, object] = {}

    # -- groups ---------------------------------------------------------------
    def subhead_group(self, fsdp: int, tp: int):
        """Sub-head reduction group of rank (f, k): the s ranks sharing a head."""
        s = self.subhead_size
        head = tp // s
        key = fsdp * self.plan.tp_size + head
        if key not in self._subhead_groups:
            tp_ranks = self.tp_group(fsdp).ranks
            members = [tp_ranks[head * s + j] for j in range(s)]
            self._subhead_groups[key] = self.plan.cluster.new_group(members)
        return self._subhead_groups[key]

    # -- parameter access -------------------------------------------------------
    def sharded_parameters(self) -> list[ShardedParameter]:
        params = [p for plist in self._params.values() for p in plist]
        params.append(self.wo_bias)
        if self.qk_layernorm:
            params += [self.ln_q_gamma, self.ln_q_beta, self.ln_k_gamma, self.ln_k_beta]
        return params

    def gathered_state(self) -> dict:
        state = {
            "wq.weight": ops.concat([p.full() for p in self._params["wq"]], axis=-1),
            "wq.bias": ops.concat([p.full() for p in self._params["wq_bias"]], axis=-1),
            "wk.weight": ops.concat([p.full() for p in self._params["wk"]], axis=-1),
            "wk.bias": ops.concat([p.full() for p in self._params["wk_bias"]], axis=-1),
            "wv.weight": ops.concat([p.full() for p in self._params["wv"]], axis=-1),
            "wv.bias": ops.concat([p.full() for p in self._params["wv_bias"]], axis=-1),
            "wo.weight": ops.concat([p.full() for p in self._params["wo"]], axis=-2),
            "wo.bias": self.wo_bias.full(),
        }
        if self.qk_layernorm:
            state["ln_q.gamma"] = self.ln_q_gamma.full()
            state["ln_q.beta"] = self.ln_q_beta.full()
            state["ln_k.gamma"] = self.ln_k_gamma.full()
            state["ln_k.beta"] = self.ln_k_beta.full()
        return state

    def gathered_grads(self) -> dict:
        grads = {
            "wq.weight": ops.concat([p.full_grad() for p in self._params["wq"]], axis=-1),
            "wq.bias": ops.concat([p.full_grad() for p in self._params["wq_bias"]], axis=-1),
            "wk.weight": ops.concat([p.full_grad() for p in self._params["wk"]], axis=-1),
            "wk.bias": ops.concat([p.full_grad() for p in self._params["wk_bias"]], axis=-1),
            "wv.weight": ops.concat([p.full_grad() for p in self._params["wv"]], axis=-1),
            "wv.bias": ops.concat([p.full_grad() for p in self._params["wv_bias"]], axis=-1),
            "wo.weight": ops.concat([p.full_grad() for p in self._params["wo"]], axis=-2),
            "wo.bias": self.wo_bias.full_grad(),
        }
        if self.qk_layernorm:
            grads["ln_q.gamma"] = self.ln_q_gamma.full_grad()
            grads["ln_q.beta"] = self.ln_q_beta.full_grad()
            grads["ln_k.gamma"] = self.ln_k_gamma.full_grad()
            grads["ln_k.beta"] = self.ln_k_beta.full_grad()
        return grads

    def zero_grad(self) -> None:
        for param in self.sharded_parameters():
            param.zero_grad()

    # -- head reshapes ---------------------------------------------------------
    def _split_local(self, x, batch: int, seq: int):
        x = ops.reshape(x, (batch, seq, self.heads_per_rank, self.local_head_dim))
        return ops.transpose(x, (0, 2, 1, 3))

    def _merge_local(self, x, batch: int, seq: int):
        return ops.reshape(ops.transpose(x, (0, 2, 1, 3)), (batch, seq, self.local_dim))

    def _apply_ln(self, x, gamma, beta):
        xhat, cache = F.layernorm_forward(x, eps=self.ln_eps)
        return ops.add(ops.multiply(xhat, gamma), beta), cache

    # -- execution -----------------------------------------------------------------
    def forward(self, xs: list) -> list:
        if len(xs) != self.fsdp_size:
            raise ValueError(f"expected {self.fsdp_size} micro-batches, got {len(xs)}")
        K, F_ = self.tp_size, self.fsdp_size
        batch, seq = xs[0].shape[0], xs[0].shape[1]
        ln_params = None
        if self.qk_layernorm:
            lnq_g = self._gather(self.ln_q_gamma, self.fsdp_group(0))
            lnq_b = self._gather(self.ln_q_beta, self.fsdp_group(0))
            lnk_g = self._gather(self.ln_k_gamma, self.fsdp_group(0))
            lnk_b = self._gather(self.ln_k_beta, self.fsdp_group(0))
            ln_params = (lnq_g, lnq_b, lnk_g, lnk_b)

        locals_cache = [[None] * K for _ in range(F_)]
        score_partials = [[None] * K for _ in range(F_)]
        for k in range(K):
            group = self.fsdp_group(k)
            with self._gather(self._params["wq"][k], group) as wq, \
                    self._gather(self._params["wq_bias"][k], group) as bq, \
                    self._gather(self._params["wk"][k], group) as wk, \
                    self._gather(self._params["wk_bias"][k], group) as bk, \
                    self._gather(self._params["wv"][k], group) as wv, \
                    self._gather(self._params["wv_bias"][k], group) as bv:
                for f in self.fold_fsdp(range(F_)):
                    with self.ranked_compute(f, k):
                        q = self._split_local(ops.add(ops.matmul(xs[f], wq.data), bq.data), batch, seq)
                        key = self._split_local(ops.add(ops.matmul(xs[f], wk.data), bk.data), batch, seq)
                        val = self._split_local(ops.add(ops.matmul(xs[f], wv.data), bv.data), batch, seq)
                        ln_caches = None
                        if self.qk_layernorm:
                            q, q_cache = self._apply_ln(q, ln_params[0].data, ln_params[1].data)
                            key, k_cache = self._apply_ln(key, ln_params[2].data, ln_params[3].data)
                            ln_caches = (q_cache, k_cache)
                        locals_cache[f][k] = {"q": q, "k": key, "v": val, "ln": ln_caches}
                        score_partials[f][k] = ops.multiply(
                            ops.matmul(q, ops.swapaxes(key, -1, -2)), self.scale
                        )

        # Sub-head reduction (Eqn 2 on the Q K^T chain); free when s == 1.
        probs = [[None] * K for _ in range(F_)]
        out_partials = [[None] * K for _ in range(F_)]
        for f in self.fold_fsdp(range(F_)):
            if self.subhead_size > 1:
                for head in range(self.num_heads):
                    members = range(head * self.subhead_size, (head + 1) * self.subhead_size)
                    reduced = all_reduce(
                        self.subhead_group(f, head * self.subhead_size),
                        [score_partials[f][k] for k in members],
                        op="sum",
                    )
                    for j, k in enumerate(members):
                        score_partials[f][k] = reduced[j]
            for k in range(K):
                with self.ranked_compute(f, k):
                    p, _ = F.softmax_forward(score_partials[f][k])
                    probs[f][k] = p
                    out_partials[f][k] = ops.matmul(p, locals_cache[f][k]["v"])

        ys = []
        wo_handles = [
            self._gather(self._params["wo"][k], self.fsdp_group(k))
            for k in range(K)
        ]
        with self._gather(self.wo_bias, self.fsdp_group(0)) as bo:
            merged = [[None] * K for _ in range(F_)]
            for f in self.fold_fsdp(range(F_)):
                y_partials = []
                for k in range(K):
                    with self.ranked_compute(f, k):
                        merged[f][k] = self._merge_local(out_partials[f][k], batch, seq)
                        y_k = ops.matmul(merged[f][k], wo_handles[k].data)
                        if k == 0:
                            y_k = ops.add(y_k, bo.data)
                        y_partials.append(y_k)
                ys.append(tensor_parallel_sum(self.tp_group(f), y_partials))
        for handle in wo_handles:
            handle.release()
        if ln_params is not None:
            for handle in ln_params:
                handle.release()
        self._cache = (xs, locals_cache, probs, merged, batch, seq)
        return self.fold_pad(ys)

    def backward(self, grad_ys: list) -> list:
        xs, locals_cache, probs, merged, batch, seq = self._require_cache()
        self._cache = None
        K, F_ = self.tp_size, self.fsdp_size

        batch_axes = tuple(range(grad_ys[0].ndim - 1))
        reduce_scatter_grads(
            self.wo_bias, self.fsdp_group(0), [ops.sum_(g, axis=batch_axes) for g in grad_ys]
        )

        # Backward through W_o (row shards).
        grad_out_local = [[None] * K for _ in range(F_)]
        for k in range(K):
            group = self.fsdp_group(k)
            with self._gather(self._params["wo"][k], group) as wo:
                wo_grads = []
                for f in self.fold_fsdp(range(F_)):
                    with self.ranked_compute(f, k):
                        flat = batch * seq
                        m2d = ops.reshape(merged[f][k], (flat, self.local_dim))
                        g2d = ops.reshape(grad_ys[f], (flat, self.dim))
                        wo_grads.append(ops.matmul(ops.swapaxes(m2d, 0, 1), g2d))
                        grad_merged = ops.matmul(grad_ys[f], ops.swapaxes(wo.data, -1, -2))
                        grad_out_local[f][k] = self._split_local(grad_merged, batch, seq)
                reduce_scatter_grads(self._params["wo"][k], group, self.fold_pad(wo_grads))

        # Backward through the attention core.
        grad_q = [[None] * K for _ in range(F_)]
        grad_k = [[None] * K for _ in range(F_)]
        grad_v = [[None] * K for _ in range(F_)]
        for f in self.fold_fsdp(range(F_)):
            grad_p_partials = [None] * K
            for k in range(K):
                with self.ranked_compute(f, k):
                    v = locals_cache[f][k]["v"]
                    grad_p_partials[k] = ops.matmul(grad_out_local[f][k], ops.swapaxes(v, -1, -2))
                    grad_v[f][k] = ops.matmul(
                        ops.swapaxes(probs[f][k], -1, -2), grad_out_local[f][k]
                    )
            if self.subhead_size > 1:
                for head in range(self.num_heads):
                    members = range(head * self.subhead_size, (head + 1) * self.subhead_size)
                    reduced = all_reduce(
                        self.subhead_group(f, head * self.subhead_size),
                        [grad_p_partials[k] for k in members],
                        op="sum",
                    )
                    for j, k in enumerate(members):
                        grad_p_partials[k] = reduced[j]
            for k in range(K):
                with self.ranked_compute(f, k):
                    grad_scores = ops.multiply(
                        F.softmax_backward(probs[f][k], grad_p_partials[k]), self.scale
                    )
                    grad_q[f][k] = ops.matmul(grad_scores, locals_cache[f][k]["k"])
                    grad_k[f][k] = ops.matmul(
                        ops.swapaxes(grad_scores, -1, -2), locals_cache[f][k]["q"]
                    )

        # Backward through QK layer norm (whole-head regime only).
        if self.qk_layernorm:
            self._backward_qk_layernorm(grad_q, grad_k, locals_cache)

        # Backward through the column-sharded projections.
        grad_x_partials = [[None] * K for _ in range(F_)]
        for pname, grads in (("wq", grad_q), ("wk", grad_k), ("wv", grad_v)):
            for k in range(K):
                group = self.fsdp_group(k)
                with self._gather(self._params[pname][k], group) as w:
                    w_grads = []
                    b_grads = []
                    for f in self.fold_fsdp(range(F_)):
                        with self.ranked_compute(f, k):
                            g_merged = self._merge_local(grads[f][k], batch, seq)
                            flat = batch * seq
                            x2d = ops.reshape(xs[f], (flat, self.dim))
                            g2d = ops.reshape(g_merged, (flat, self.local_dim))
                            w_grads.append(ops.matmul(ops.swapaxes(x2d, 0, 1), g2d))
                            b_grads.append(ops.sum_(g2d, axis=0))
                            partial = ops.matmul(g_merged, ops.swapaxes(w.data, -1, -2))
                            if grad_x_partials[f][k] is None:
                                grad_x_partials[f][k] = partial
                            else:
                                grad_x_partials[f][k] = ops.add(grad_x_partials[f][k], partial)
                    reduce_scatter_grads(self._params[pname][k], group, self.fold_pad(w_grads))
                    reduce_scatter_grads(self._params[f"{pname}_bias"][k], group,
                                         self.fold_pad(b_grads))

        grad_xs = []
        for f in self.fold_fsdp(range(F_)):
            grad_xs.append(tensor_parallel_sum(self.tp_group(f), grad_x_partials[f]))
        return self.fold_pad(grad_xs)

    def _backward_qk_layernorm(self, grad_q, grad_k, locals_cache) -> None:
        """Gradients through the q/k layer norms and their (replicated) affines.

        Affine parameter grads are summed over tensor-parallel ranks
        (each owns different heads) and then reduce-scattered over the
        FSDP group that stores them.
        """
        K, F_ = self.tp_size, self.fsdp_size
        lnq_g = self._gather(self.ln_q_gamma, self.fsdp_group(0))
        lnk_g = self._gather(self.ln_k_gamma, self.fsdp_group(0))
        qg_partials: list[list] = [[None] * K for _ in range(F_)]
        qb_partials: list[list] = [[None] * K for _ in range(F_)]
        kg_partials: list[list] = [[None] * K for _ in range(F_)]
        kb_partials: list[list] = [[None] * K for _ in range(F_)]
        for f in self.fold_fsdp(range(F_)):
            for k in range(K):
                q_cache, k_cache = locals_cache[f][k]["ln"]
                with self.ranked_compute(f, k):
                    reduce_axes = tuple(range(grad_q[f][k].ndim - 1))
                    qhat = q_cache[0]
                    qg_partials[f][k] = ops.sum_(ops.multiply(grad_q[f][k], qhat), axis=reduce_axes)
                    qb_partials[f][k] = ops.sum_(grad_q[f][k], axis=reduce_axes)
                    grad_q[f][k] = F.layernorm_backward(
                        q_cache, ops.multiply(grad_q[f][k], lnq_g.data)
                    )
                    khat = k_cache[0]
                    kg_partials[f][k] = ops.sum_(ops.multiply(grad_k[f][k], khat), axis=reduce_axes)
                    kb_partials[f][k] = ops.sum_(grad_k[f][k], axis=reduce_axes)
                    grad_k[f][k] = F.layernorm_backward(
                        k_cache, ops.multiply(grad_k[f][k], lnk_g.data)
                    )
        lnq_g.release()
        lnk_g.release()
        for param, partials in (
            (self.ln_q_gamma, qg_partials),
            (self.ln_q_beta, qb_partials),
            (self.ln_k_gamma, kg_partials),
            (self.ln_k_beta, kb_partials),
        ):
            per_f = []
            for f in self.fold_fsdp(range(F_)):
                per_f.append(tensor_parallel_sum(self.tp_group(f), partials[f]))
            reduce_scatter_grads(param, self.fsdp_group(0), self.fold_pad(per_f))
