"""Even distribution of section vectors across the response tiles.

Each section's control vector and argument vector are cut into n contiguous
chunks whose lengths differ by at most one; earlier drain positions take the
extra words.  Chunk k belongs to the response tile at drain position k.

A section's spliced words (controller scalars read at broadcast time) reach
every response tile in the wake stream, in the order of `Section.splices`.
Each chunk's `patch` has one entry per such word: the word's offset in the
chunk's args, or None when another chunk holds that word.
"""

from __future__ import annotations

from dataclasses import dataclass


def chunk_sizes(total: int, n: int) -> list[int]:
    base, extra = divmod(total, n)
    return [base + (1 if k < extra else 0) for k in range(n)]


def split_even(vec: list, n: int) -> list[list]:
    out, at = [], 0
    for size in chunk_sizes(len(vec), n):
        out.append(list(vec[at:at + size]))
        at += size
    return out


@dataclass
class RespChunk:
    """One response tile's share of one section."""
    section: int
    position: int
    ctrl: list[int]
    args: list[int]
    patch: list[int | None]     # per spliced wake-stream word: offset in args


def assign_sections(sections, n_resp: int) -> list[list[RespChunk]]:
    """Per-position lists of chunks, one entry per section."""
    per_pos = [[] for _ in range(n_resp)]
    for sec in sections:
        ctrl_chunks = split_even(sec.ctrl_vector, n_resp)
        args_chunks = split_even(sec.args_vector, n_resp)
        spliced = [pos + w for pos, width, _addr in sec.splices for w in range(width)]
        lo = 0
        for k in range(n_resp):
            hi = lo + len(args_chunks[k])
            patch = [p - lo if lo <= p < hi else None for p in spliced]
            per_pos[k].append(RespChunk(sec.index, k, ctrl_chunks[k], args_chunks[k], patch))
            lo = hi
    return per_pos


def resp_words(per_pos_chunks: list[RespChunk]) -> int:
    """Words of section data a response tile must hold."""
    return sum(len(c.ctrl) + len(c.args) for c in per_pos_chunks)
