package mpi

import (
	"time"

	"repro/internal/tensor"
)

// Tag bands for the two-level and compressed collectives. TagSparse is
// exported: the top-k sparsified allreduce in internal/collective runs its
// gather phase over the public Send/Recv API and needs a band the built-in
// collectives never touch.
const (
	tagHier = tagBase + 8*tagStride
	tagFP16 = tagBase + 10*tagStride
	// TagSparse is the base of the tag band reserved for the sparse
	// (top-k) allreduce implemented in internal/collective. Per-step
	// offsets stay within the band for worlds up to 2^17 ranks.
	TagSparse = tagBase + 11*tagStride
)

// AllreduceSumFP16 sums buf element-wise across all ranks with an
// fp16-compressed wire format: every hop of the chunk-pipelined ring
// packs its float32 payload into IEEE 754 binary16 pairs (half the
// bytes), the receiver unpacks and accumulates in full float32, and the
// final allgather circulates each chunk's packed bits unchanged — so
// every rank decodes the identical halves and replicas stay bit-wise in
// sync. Partial sums are re-quantized at each of the p−1 reduce-scatter
// hops, which is the numerics Horovod's fp16 compressor exhibits on a
// ring; convergence under it is pinned by the harness in
// internal/collective.
func (c *Comm) AllreduceSumFP16(buf []float32) {
	start := time.Now()
	c.ring(buf, c.world.size, 1, true)
	// Record the compressed message size: what actually hits the wire,
	// so hvprof's size buckets tell the compression story.
	c.profile("allreduce", "allreduce/fp16", int64(tensor.HalfWords(len(buf)))*4, time.Since(start))
}

// AllreduceSumNodeAware is the two-level node-aware allreduce mirroring
// the paper's MVAPICH2-GDR hierarchical design, driven by the world's
// topology (SetGPUsPerNode): reduce within each node onto its leader in
// full precision (the intra-node hop models NVLink, where compression
// buys nothing), ring-allreduce across node leaders — the inter-node hop
// that crosses the InfiniBand fabric — with an optionally fp16-compressed
// wire, then broadcast the result within each node. With one GPU per
// node it degenerates to a flat (optionally compressed) ring.
func (c *Comm) AllreduceSumNodeAware(buf []float32, fp16 bool) {
	start := time.Now()
	p, gs := c.world.size, c.world.gpusPerNode
	leader := c.rank - c.rank%gs
	nodeEnd := min(leader+gs, p)
	if c.rank == leader {
		// Flat gather-reduce in fp32: nodes are small (4 GPUs on Lassen).
		for src := leader + 1; src < nodeEnd; src++ {
			tmp := c.tmpScratch(len(buf))
			c.Recv(src, tagHier, tmp)
			sumInto(buf, tmp)
		}
		c.ring(buf, (p+gs-1)/gs, gs, fp16)
		for dst := leader + 1; dst < nodeEnd; dst++ {
			c.Send(dst, tagHier+1, buf)
		}
	} else {
		c.Send(leader, tagHier, buf)
		c.Recv(leader, tagHier+1, buf)
	}
	c.profile("allreduce", "allreduce/hier", wireBytesHier(len(buf), fp16), time.Since(start))
}

// wireBytesHier is the recorded message size of the node-aware variant:
// the inter-node (leader-ring) payload, compressed when fp16 is on —
// the hop whose bytes the hierarchy exists to manage.
func wireBytesHier(n int, fp16 bool) int64 {
	if fp16 {
		return int64(tensor.HalfWords(n)) * 4
	}
	return int64(n) * 4
}
