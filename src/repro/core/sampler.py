"""Complete-circuit-path sampling (Section 3.2, Algorithm 1).

A *complete circuit path* begins and ends at vertices that contain
flip-flops (``dff``) or are design ports (``io``) — it captures one-cycle
behaviour.  The sampler runs a randomized DFS: at every combinational
vertex it explores ``ceil(|successors| / k)`` randomly-chosen successors
(at least one), so ``k = 1`` is exhaustive and larger ``k`` thins the
sample.  The paper uses ``k = 5`` for training.

The walk runs over the CSR adjacency of a
:class:`repro.graphir.CompiledGraph`: precompiled successor lists, token
strings, and sequential flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphir import CompiledGraph

__all__ = ["SampledPath", "PathSampler"]

DEFAULT_K = 5
DEFAULT_MAX_LEN = 64
DEFAULT_MAX_PATHS = 512


@dataclass(frozen=True)
class SampledPath:
    """One complete circuit path: node ids and their vocabulary tokens.

    Because each path is explicitly sampled, SNS keeps a record of where
    it lives in the design (``node_ids``) — this is what lets SNS point
    at the critical path (Section 2.2).
    """

    node_ids: tuple[int, ...]
    tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class PathSampler:
    """Randomized DFS path sampler (Algorithm 1).

    Parameters
    ----------
    k:
        Sampling divisor — ``ceil(succ/k)`` successors explored per
        vertex.  ``k=1`` samples exhaustively.
    max_len:
        Paths longer than this are truncated at the next sequential
        vertex or dropped; protects the Circuitformer's input bound.
    max_paths:
        Global per-design budget; sampling stops once reached.
    seed:
        RNG seed for reproducible sampling.
    """

    k: int = DEFAULT_K
    max_len: int = DEFAULT_MAX_LEN
    max_paths: int = DEFAULT_MAX_PATHS
    seed: int = 0

    # Work-stack bound for one DFS: the iterative walk cannot hit
    # Python's recursion limit on deep combinational chains, but a
    # pathological fanout graph could still grow the explicit stack
    # without bound — fail loudly instead of exhausting memory.
    _MAX_STACK = 1_000_000

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1: {self.k}")
        if self.max_len < 2:
            raise ValueError(f"max_len must allow at least two endpoints: {self.max_len}")

    # ------------------------------------------------------------------ #
    def sample(self, cg: CompiledGraph) -> list[SampledPath]:
        """Sample complete circuit paths from every sequential source.

        Sampling is coverage-guided (successors not yet on any sampled
        path are preferred — the paper's "evenly distributed across the
        entire design") and runs multiple rounds over the sources until
        the path budget is met or a round yields nothing new.  Each DFS
        uses an explicit work stack, so combinational chains deeper than
        ``sys.getrecursionlimit()`` are safe; ``_MAX_STACK`` turns a
        pathological exploration into a clear error.
        """
        rng = np.random.default_rng(self.seed)
        shuffle = rng.shuffle
        succ = cg.succ_lists
        is_seq = cg.is_seq_list
        tokens = cg.token_list
        k = self.k
        max_len = self.max_len
        max_paths = self.max_paths
        max_stack = self._MAX_STACK

        paths: list[SampledPath] = []
        append = paths.append
        seen: set[tuple[int, ...]] = set()
        visited: set[int] = set()
        visited_update = visited.update

        def pick(successors: list[int]) -> list[int]:
            # ceil(len/k) picks, fresh (never-visited) successors first:
            # the coverage preference keeps rare branches (a lone divider
            # behind a wide mux tree, often the critical path) from being
            # thinned away.  Generator.shuffle on a 0/1-element sequence
            # draws nothing, so skipping those calls moves no stream
            # position.
            length = len(successors)
            count = -(-length // k)
            if count >= length:
                visited_update(successors)
                return successors
            fresh = [s for s in successors if s not in visited]
            stale = [s for s in successors if s in visited]
            if len(fresh) > 1:
                shuffle(fresh)
            if len(stale) > 1:
                shuffle(stale)
            if count == 1:
                picked = [fresh[0]] if fresh else [stale[0]]
            else:
                picked = (fresh + stale)[:count]
            visited_update(picked)
            return picked

        sources = list(cg.source_ids())
        max_rounds = 1 if k == 1 else 8
        for _ in range(max_rounds):
            if len(paths) >= max_paths:
                break
            before = len(paths)
            shuffle(sources)
            for src in sources:
                if len(paths) >= max_paths:
                    break
                stack: list[tuple[int, tuple[int, ...]]] = [
                    (s, (src, s)) for s in pick(succ[src])]
                while stack and len(paths) < max_paths:
                    node_id, path = stack.pop()
                    if is_seq[node_id]:
                        if path not in seen:
                            seen.add(path)
                            append(SampledPath(
                                node_ids=path,
                                tokens=tuple(tokens[n] for n in path)))
                        continue
                    if len(path) >= max_len:
                        continue  # drop over-long exploration
                    successors = succ[node_id]
                    if not successors:
                        continue  # dangling combinational sink
                    for s in pick(successors):
                        if s in path and not is_seq[s]:
                            continue  # avoid combinational revisits
                        stack.append((s, path + (s,)))
                    if len(stack) > max_stack:
                        raise RuntimeError(
                            f"path-sampler work stack exceeded {max_stack} "
                            f"entries on design {cg.name!r}; raise k or lower "
                            "max_len/max_paths to bound the exploration")
            if len(paths) == before:
                break
        return paths
