"""hMetis ``.hgr`` hypergraph format.

The de-facto interchange format of the multilevel-partitioning
literature (hMetis, KaHyPar, PaToH all read it).  Supported dialects,
selected by the header's ``fmt`` code:

* ``(none)`` -- unweighted: ``<nets> <vertices>`` then one line of
  1-based pin indices per net;
* ``1``  -- net weights: each net line starts with its weight;
* ``10`` -- vertex weights: vertex-weight lines follow the net lines;
* ``11`` -- both.

hMetis has a companion ``.fix`` file (one line per vertex: the target
partition or ``-1``), which is exactly the paper's hard-fixture vector;
:func:`read_fix_file` / :func:`write_fix_file` handle it.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.hypergraph.hypergraph import Hypergraph, HypergraphError
from repro.partition.solution import FREE

PathLike = Union[str, Path]


class HgrFormatError(HypergraphError):
    """Raised on malformed ``.hgr`` content.

    Parser errors carry the file name and 1-based line number
    (``file.hgr:3: ...``) so a bad line in a big netlist is findable.
    """


def write_hgr(graph: Hypergraph, path: PathLike) -> None:
    """Write ``graph`` in ``.hgr`` format.

    The dialect is chosen from the content: net weights are emitted iff
    any differ from 1, vertex weights iff any area differs from 1.
    Zero-pin nets cannot be represented and are rejected; areas are
    written as integers (rounded) because hMetis requires integral
    weights -- callers with fractional areas should pre-scale.
    """
    for e in range(graph.num_nets):
        if graph.net_size(e) == 0:
            raise HgrFormatError(f"net {e} has no pins")
    has_net_weights = any(
        graph.net_weight(e) != 1 for e in range(graph.num_nets)
    )
    has_vertex_weights = any(
        graph.area(v) != 1.0 for v in range(graph.num_vertices)
    )
    fmt = (10 if has_vertex_weights else 0) + (1 if has_net_weights else 0)

    lines = []
    header = f"{graph.num_nets} {graph.num_vertices}"
    if fmt:
        header += f" {fmt}"
    lines.append(header)
    for e in range(graph.num_nets):
        pins = " ".join(str(v + 1) for v in graph.net_pins(e))
        if has_net_weights:
            lines.append(f"{graph.net_weight(e)} {pins}")
        else:
            lines.append(pins)
    if has_vertex_weights:
        for v in range(graph.num_vertices):
            lines.append(str(round(graph.area(v))))
    Path(path).write_text("\n".join(lines) + "\n")


def read_hgr(path: PathLike) -> Hypergraph:
    """Parse a ``.hgr`` file into a :class:`Hypergraph`.

    Malformed content raises :class:`HgrFormatError` (a
    :class:`HypergraphError`) pointing at the offending
    ``file:lineno``.
    """
    name = Path(path).name
    # (1-based source line number, content) of every non-empty line,
    # with % comments stripped -- kept paired so errors can name the
    # actual line in the file, not its index among non-empty lines.
    lines: List[Tuple[int, str]] = []
    for lineno, raw in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        stripped = raw.split("%", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise HgrFormatError(f"{name}: empty .hgr file")
    header_lineno, header_text = lines[0]
    header = header_text.split()
    if len(header) < 2:
        raise HgrFormatError(
            f"{name}:{header_lineno}: bad header: {header_text!r}"
        )
    try:
        num_nets = int(header[0])
        num_vertices = int(header[1])
        fmt = int(header[2]) if len(header) > 2 else 0
    except ValueError as exc:
        raise HgrFormatError(
            f"{name}:{header_lineno}: bad header: {header_text!r}"
        ) from exc
    if fmt not in (0, 1, 10, 11):
        raise HgrFormatError(
            f"{name}:{header_lineno}: unsupported fmt code {fmt}"
        )
    has_net_weights = fmt in (1, 11)
    has_vertex_weights = fmt in (10, 11)

    expected = 1 + num_nets + (num_vertices if has_vertex_weights else 0)
    if len(lines) != expected:
        raise HgrFormatError(
            f"{name}: expected {expected} non-empty lines, "
            f"found {len(lines)} (truncated or overlong file?)"
        )

    nets: List[List[int]] = []
    weights: List[int] = []
    for i in range(num_nets):
        lineno, text = lines[1 + i]
        tokens = text.split()
        try:
            values = [int(t) for t in tokens]
        except ValueError as exc:
            raise HgrFormatError(
                f"{name}:{lineno}: bad net line: {text!r}"
            ) from exc
        if has_net_weights:
            if len(values) < 2:
                raise HgrFormatError(
                    f"{name}:{lineno}: net line {i} lacks pins: {text!r}"
                )
            weights.append(values[0])
            pins = values[1:]
        else:
            if not values:
                raise HgrFormatError(
                    f"{name}:{lineno}: net line {i} is empty"
                )
            weights.append(1)
            pins = values
        for p in pins:
            if not 1 <= p <= num_vertices:
                raise HgrFormatError(
                    f"{name}:{lineno}: net {i} references vertex {p} "
                    f"outside [1, {num_vertices}]"
                )
        nets.append([p - 1 for p in pins])

    areas: Optional[List[float]] = None
    if has_vertex_weights:
        areas = []
        for v in range(num_vertices):
            lineno, text = lines[1 + num_nets + v]
            try:
                areas.append(float(int(text.split()[0])))
            except (ValueError, IndexError) as exc:
                raise HgrFormatError(
                    f"{name}:{lineno}: bad vertex-weight line: {text!r}"
                ) from exc

    return Hypergraph(
        nets,
        num_vertices=num_vertices,
        areas=areas,
        net_weights=weights,
    )


def write_fix_file(fixture: Sequence[int], path: PathLike) -> None:
    """Write an hMetis fix file: one target block (or -1) per line."""
    Path(path).write_text(
        "\n".join(str(f) for f in fixture) + "\n"
    )


def read_fix_file(
    path: PathLike, num_vertices: Optional[int] = None
) -> List[int]:
    """Read an hMetis fix file into a fixture vector."""
    name = Path(path).name
    values = []
    linenos = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        stripped = line.split("%", 1)[0].strip()
        if not stripped:
            continue
        try:
            values.append(int(stripped))
        except ValueError as exc:
            raise HgrFormatError(
                f"{name}:{lineno}: bad fix value {stripped!r}"
            ) from exc
        linenos.append(lineno)
    if num_vertices is not None and len(values) != num_vertices:
        raise HgrFormatError(
            f"{name}: fix file has {len(values)} lines, "
            f"expected {num_vertices}"
        )
    for i, f in enumerate(values):
        if f < FREE:
            raise HgrFormatError(
                f"{name}:{linenos[i]}: fix entry {i} is {f}; "
                "must be >= -1"
            )
    return values

