"""Partition chains: dyadic construction, refinement starts, serialization."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histolim.errors import ValidationError
from histolim.partitions import (
    Domain,
    Partition,
    PartitionChain,
    chain_from_json_text,
    dyadic_chain,
    format_endpoint,
    max_depth,
    node_label,
    parse_endpoint,
    refine_map,
    triangular_chain,
)

from cell_walk import (
    cantor_midpoint,
    cell_walk_boundaries,
    cells_of,
    dyadic_cell_bounds,
    oracle_cells,
)

bits_st = st.lists(st.integers(0, 1), min_size=0, max_size=12)


def nested_rows(depth, spread=1.0):
    """Rows for a triangular chain: cut k/2^n spread over [-s, s]."""
    return [[spread * (2.0 * k / (1 << n) - 1.0) for k in range(1, 1 << n)]
            for n in range(1, depth + 1)]


def test_unit_chain_shapes():
    chain = dyadic_chain(depth=5)
    assert chain.depth == 5
    for m in range(6):
        assert len(chain[m]) == 2**m
        assert chain[m].level == m
    assert chain.domain == Domain.unit()


def test_level_zero_is_whole_domain():
    part = dyadic_chain(depth=0)[0]
    assert part.labels() == ["()"]
    assert part.edges().tolist() == [0.0, 1.0]


@given(bits_st)
def test_dyadic_bounds_are_exact_fractions(bits):
    lo, hi = dyadic_cell_bounds(bits)
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert hi - lo == Fraction(1, 2 ** len(bits))
    # the binary expansion is the left endpoint
    expect = sum(Fraction(b, 2 ** (i + 1)) for i, b in enumerate(bits))
    assert lo == expect


@given(bits_st.filter(lambda b: len(b) >= 1))
def test_children_tile_parent(bits):
    lo, hi = dyadic_cell_bounds(bits)
    l0, h0 = dyadic_cell_bounds(bits + [0])
    l1, h1 = dyadic_cell_bounds(bits + [1])
    assert l0 == lo and h0 == l1 and h1 == hi


@pytest.mark.parametrize("domain", [Domain.unit(), Domain.unit(closed_left=True),
                                    Domain(Fraction(-3, 2), Fraction(5, 4), True)],
                         ids=Domain.describe)
def test_labels_match_the_bit_addresses(domain):
    for part in dyadic_chain(domain, depth=11).partitions:
        assert part.labels() == [c.index.label() for c in cells_of(part)]


@given(bits_st)
def test_dyadic_cut_points_are_the_bit_address_bounds(bits):
    domain = Domain(Fraction(-3, 2), Fraction(5, 4))
    part = Partition(domain, len(bits))
    label = "".join(map(str, bits))
    pos = int(label or "0", 2)
    assert (part.cut(pos), part.cut(pos + 1)) == dyadic_cell_bounds(bits, domain)
    assert node_label(len(bits), pos) == (label or "()")


@given(st.integers(1, 7), st.floats(0.0, 1.0, exclude_min=True))
def test_position_of_locates_points(depth, x):
    part = dyadic_chain(depth=depth)[depth]
    cells = cells_of(part)
    assert cells[part.position_of(x)].contains(x)
    # exactly one cell contains it
    assert sum(c.contains(x) for c in cells) == 1


@given(st.integers(0, 6), st.integers(0, 6))
def test_refinement_composition(a, b):
    coarse, fine = sorted((a, b))
    chain = dyadic_chain(depth=6)
    starts = chain.refinement(coarse, fine)
    assert len(starts) == len(chain[coarse])
    # the runs between starts cover every fine cell once, none empty
    assert starts[0] == 0 and (np.diff(starts) > 0).all()
    assert starts[-1] < len(chain[fine])
    # composing through an intermediate level gives the same map
    mid = (coarse + fine) // 2
    via = chain.refinement(mid, fine)[chain.refinement(coarse, mid)]
    assert np.array_equal(via, starts)


def test_refinement_is_the_group_starts():
    chain = dyadic_chain(depth=3)
    starts = chain.refinement(1, 3)
    assert starts.dtype == np.intp and starts.tolist() == [0, 4]


def test_a_level_given_cut_points_is_refined_by_them():
    """The kind is read off the cuts, so a level stored with cut points is
    matched by them: its cut 0.1 straddles the dyadic cell (0, 1/4]."""
    part = Partition(Domain.unit(), 1, (Fraction(0), 0.1, Fraction(1)))
    assert (part.kind, Partition(Domain.unit(), 1).kind) == ("triangular", "dyadic")
    with pytest.raises(ValidationError) as e:
        refine_map(part, dyadic_chain(depth=2)[2])
    assert (e.value.code, str(e.value)) == (
        "refinement/straddle", "fine cell (0, 1/4] straddles the coarse boundary at 0.1")


def test_refinement_rejects_inverted_levels():
    chain = dyadic_chain(depth=3)
    with pytest.raises(ValidationError):
        chain.refinement(3, 1)


def test_dyadic_refuses_unbounded_domain():
    with pytest.raises(ValidationError) as e:
        dyadic_chain(Domain.real_line(), depth=2)
    assert e.value.code == "partition/unbounded"


def test_triangular_chain_on_real_line():
    chain = triangular_chain(nested_rows(3))
    assert chain.depth == 3
    for n in range(4):
        assert len(chain[n]) == 2**n
    part = chain[3]
    edges = part.edges()
    assert (edges[0], edges[-1]) == (-math.inf, math.inf)
    assert np.isfinite(edges[1:-1]).all()
    # binary refinement structure: every coarse cell covers two fine cells
    assert np.diff(chain.refinement(2, 3), append=len(part)).tolist() == [2] * 4


def test_triangular_chain_reports_first_violation():
    rows = nested_rows(2)
    rows[1][1] = rows[1][0]  # kill strictness at row 2, position 2
    with pytest.raises(ValidationError) as e:
        triangular_chain(rows)
    assert e.value.code == "partition/ordering"
    assert "(2, 2)" in str(e.value)


def test_triangular_chain_rejects_broken_nesting():
    rows = nested_rows(2)
    rows[1][1] += 0.125  # even position no longer repeats row 1
    with pytest.raises(ValidationError) as e:
        triangular_chain(rows)
    assert e.value.code == "partition/nesting"


def test_closed_left_domain_gets_atom_cell():
    chain = dyadic_chain(Domain.unit(closed_left=True), depth=2)
    part = chain[2]
    assert part.has_atom
    assert part.labels()[0] == "{left}"
    assert part.widths()[0] == 0.0
    assert part.describe_cell(0) == "{0}"
    assert len(part) == 4 + 1
    # the atom refines onto itself
    assert chain.refinement(1, 2)[:2].tolist() == [0, 1]


def test_depth_capacity_env(monkeypatch):
    monkeypatch.setenv("HISTOLIM_MAX_DEPTH", "4")
    assert max_depth() == 4
    with pytest.raises(ValidationError) as e:
        dyadic_chain(depth=5)
    assert e.value.code == "partition/depth-capacity"
    monkeypatch.setenv("HISTOLIM_MAX_DEPTH", "not-a-number")
    with pytest.raises(ValidationError) as e:
        max_depth()
    assert e.value.code == "config/max-depth"


def chain_text(chain):
    return json.dumps(chain.to_json(), indent=2, sort_keys=True)


def test_dyadic_chain_json_round_trip():
    chain = dyadic_chain(Domain(Fraction(-1), Fraction(3)), depth=4)
    text = chain_text(chain)
    back = chain_from_json_text(text)
    assert isinstance(back, PartitionChain)
    assert back.depth == 4
    for m in range(5):
        assert back[m].labels() == chain[m].labels()
    assert chain_text(back) == text


def test_triangular_chain_json_round_trip():
    chain = triangular_chain(nested_rows(3, spread=2.5))
    back = chain_from_json_text(chain_text(chain))
    assert back.depth == 3
    for n in range(4):
        assert back[n].widths().tolist() == chain[n].widths().tolist()


def test_cantor_midpoint_values():
    # first splits of the middle-thirds construction
    assert cantor_midpoint([]) == Fraction(1, 2)
    assert cantor_midpoint([0]) == Fraction(1, 6)
    assert cantor_midpoint([1]) == Fraction(5, 6)
    assert cantor_midpoint([0] * 5) == Fraction(1, 2 * 3**5)


@given(bits_st)
@settings(max_examples=60)
def test_cantor_midpoint_mirror_symmetry(bits):
    mirror = [1 - b for b in bits]
    assert cantor_midpoint(bits) + cantor_midpoint(mirror) == 1


@given(bits_st, st.integers(0, 1))
def test_cantor_children_stay_inside_parent_third(bits, b):
    # extending the address moves within the parent's surviving third
    x = cantor_midpoint(bits)
    half = Fraction(1, 2 * 3 ** len(bits))
    child = cantor_midpoint(bits + [b])
    assert x - half < child < x + half


def test_unbounded_domain_ends_read_as_infinite_floats():
    chain = triangular_chain(nested_rows(1))
    assert float(chain.domain.left) == float("-inf")
    assert float(chain.domain.right) == float("inf")


def eager_dyadic_levels(domain, depth):
    """Dyadic levels stored as cut-point tuples, the way a non-dyadic level
    is kept, against which the implicit dyadic arithmetic is checked."""
    left = Fraction(domain.left)
    span = Fraction(domain.right) - left
    return [Partition(domain, m, tuple(left + i * (span / (1 << m)) for i in range((1 << m) + 1)))
            for m in range(depth + 1)]


DOMAINS = [Domain.unit(), Domain.unit(closed_left=True),
           Domain(Fraction(-3, 2), Fraction(5, 4)),
           Domain(Fraction(-3, 2), Fraction(5, 4), closed_left=True),
           Domain(Fraction(1, 3), Fraction(7, 5))]


@pytest.mark.parametrize("domain", DOMAINS, ids=Domain.describe)
def test_implicit_dyadic_levels_match_eager_construction(domain):
    chain = dyadic_chain(domain, depth=8)
    eager = eager_dyadic_levels(domain, 8)
    for part, ref in zip(chain.partitions, eager):
        assert len(part) == len(ref) and part.has_atom == ref.has_atom
        assert part.cut_points() == ref.cut_points()
        assert np.array_equal(part.edges(), [float(e) for e in ref.cut_points()])
        assert np.array_equal(part.widths(), ref.widths())
        cells = oracle_cells(domain, part.level, ref.cut_points())
        probes = ref.cut_points() + [(a + b) / 2 for a, b in
                                     zip(ref.cut_points(), ref.cut_points()[1:])]
        for x in probes + [float(x) for x in probes]:
            if not domain.contains(x):
                continue
            (expect,) = [i for i, c in enumerate(cells) if c.contains(x)]
            assert part.position_of(x) == ref.position_of(x) == expect
        assert [part.describe_cell(i) for i in range(len(part))] == list(map(repr, cells))
    levels = [[format_endpoint(e) for e in p.cut_points()] for p in eager]
    assert chain_text(chain) == json.dumps(
        {"domain": domain.to_json(), "kind": "dyadic", "levels": levels},
        indent=2, sort_keys=True)


@pytest.mark.parametrize("domain", DOMAINS[:2], ids=Domain.describe)
def test_dyadic_refinement_matches_cell_walk(domain):
    chain = dyadic_chain(domain, depth=6)
    eager = eager_dyadic_levels(domain, 6)
    for coarse in range(7):
        for fine in range(coarse, 7):
            walk = cell_walk_boundaries(cells_of(eager[coarse]), cells_of(eager[fine]))
            assert refine_map(chain[coarse], chain[fine]).tolist() == walk
            assert refine_map(eager[coarse], eager[fine]).tolist() == walk


@pytest.mark.parametrize("closed_left", [False, True])
def test_dyadic_chain_reaches_max_depth(closed_left, monkeypatch):
    monkeypatch.delenv("HISTOLIM_MAX_DEPTH", raising=False)
    depth = max_depth()
    assert depth == 30
    chain = dyadic_chain(Domain.unit(closed_left), depth=depth)
    assert len(chain[30]) == 2**30 + closed_left
    pos = chain[30].position_of(1.0) - closed_left
    assert node_label(30, pos) == "1" * 30


def test_unbounded_ends_are_ieee_infinities():
    assert Domain.real_line() == Domain(-math.inf, math.inf)
    assert parse_endpoint("-inf") == -math.inf
    assert parse_endpoint("+inf") == parse_endpoint(" inf ") == math.inf
    assert [format_endpoint(e) for e in (-math.inf, math.inf)] == ["-inf", "+inf"]
    assert Domain.real_line().to_json() == {"left": "-inf", "right": "+inf",
                                            "closed_left": False}
    assert Domain.from_json(Domain.real_line().to_json()) == Domain.real_line()


@pytest.mark.parametrize("text", ["1e999", "-1e999", "9" * 400, "nan", math.inf,
                                  math.nan, 10**400, "1/0", "x"],
                         ids=["1e999", "-1e999", "400-digits", "nan-text", "json-inf",
                              "json-nan", "json-huge-int", "1/0", "x"])
def test_parse_endpoint_refuses_non_finite_and_malformed(text):
    with pytest.raises(ValidationError) as e:
        parse_endpoint(text)
    assert e.value.code == "partition/endpoint"


def test_parse_endpoint_keeps_exact_and_float_forms():
    assert parse_endpoint("-3/4") == Fraction(-3, 4)
    assert parse_endpoint("12") == Fraction(12)
    assert isinstance(parse_endpoint("0.5"), float)
    assert parse_endpoint(2) == 2.0


def test_predicates_at_unbounded_ends():
    part = triangular_chain(nested_rows(1))[1]
    assert part.widths().tolist() == [math.inf, math.inf]
    assert [part.position_of(x) for x in (-1e308, 0.0, 1e-300, 1e308)] == [0, 0, 1, 1]
    assert [part.describe_cell(i) for i in range(2)] == ["(-inf, 0.0]", "(0.0, +inf]"]
    assert Domain.real_line().contains(-1e308) and not Domain.real_line().contains(-math.inf)
    half_line = Domain(Fraction(0), math.inf, closed_left=True)
    assert half_line.contains(0) and half_line.contains(Fraction(10**400))
    assert not half_line.contains(-1e-300) and not half_line.bounded


def test_huge_finite_fraction_never_turns_into_a_float():
    big = Fraction(10**400)
    domain = Domain(Fraction(0), big)
    assert domain.bounded and domain.contains(big) and not domain.contains(big + 1)
    part = dyadic_chain(domain, depth=1)[1]
    assert [part.position_of(x) for x in (Fraction(10**399), big / 2 + 1, big)] == [0, 1, 1]


@pytest.mark.parametrize("coarse, fine, at", [(1, 0, "0.0"), (2, 1, "-0.5")],
                         ids=["unbounded-fine-cell", "finite-fine-cell"])
def test_straddling_fine_cell_is_refused(coarse, fine, at):
    """A fine cell reaching past its coarse cell's right end, whether that
    fine end is +inf or finite, is one straddle error."""
    chain = triangular_chain(nested_rows(2))
    with pytest.raises(ValidationError) as e:
        refine_map(chain[coarse], chain[fine])
    assert e.value.code == "refinement/straddle"
    assert str(e.value).endswith(f"straddles the coarse boundary at {at}")


def test_straddle_error_prints_the_fine_cell_in_full():
    """The straddle error prints the fine cell as '(l, r]', each end in its
    text form: exact ends as fractions, float ends by repr, unbounded ends
    as '-inf' and '+inf'."""
    real, unit = triangular_chain(nested_rows(2)), CHAINS["triangular-unit"]()
    dyadic = dyadic_chain(depth=2)
    cases = [(real[1], real[0], "(-inf, +inf]", "0.0"),
             (real[2], real[1], "(-inf, 0.0]", "-0.5"),
             (unit[1], dyadic[1], "(0, 1/2]", "0.25"),
             (dyadic[1], unit[1], "(0.25, 1]", "1/2"),
             (dyadic[2], unit[2], "(0.25, 0.5625]", "1/2")]
    for coarse, fine, cell, at in cases:
        with pytest.raises(ValidationError) as e:
            refine_map(coarse, fine)
        assert e.value.code == "refinement/straddle"
        assert str(e.value) == f"fine cell {cell} straddles the coarse boundary at {at}"


def test_triangular_chain_refuses_every_closed_left_domain():
    for domain in (Domain.unit(closed_left=True),
                   Domain(Fraction(0), math.inf, closed_left=True)):
        with pytest.raises(ValidationError) as e:
            triangular_chain(nested_rows(1, spread=0.5), domain=domain)
        assert e.value.code == "partition/unsupported-domain"


def warped_rows(depth, warp):
    """Nested rows whose cuts are warp(k / 2^n): unequal cells that still
    nest, because an even position maps the same float as the row above."""
    return [[warp(k / (1 << n)) for k in range(1, 1 << n)] for n in range(1, depth + 1)]


TRIANGULAR = {
    "real-line": (Domain.real_line(), lambda t: (2.0 * t - 1.0) ** 3),
    "unit": (Domain.unit(), lambda t: t * t),
}


@pytest.mark.parametrize("name", TRIANGULAR)
def test_triangular_levels_read_cut_points_without_cells(name):
    domain, warp = TRIANGULAR[name]
    rows = warped_rows(6, warp)
    chain = triangular_chain(rows, domain=domain)
    for n, part in enumerate(chain.partitions):
        pts = [domain.left] + ([] if n == 0 else rows[n - 1]) + [domain.right]
        cells = oracle_cells(domain, n, pts)
        assert len(part) == len(cells) == 1 << n
        assert part.cut_points() == pts
        assert part.edges().tolist() == [float(e) for e in pts]
        assert part.widths().tolist() == [c.width() for c in cells]
        assert part.labels() == [c.index.label() for c in cells]
        mids = [(a + b) / 2 for a, b in zip(pts[1:-2], pts[2:-1])]
        for x in pts[1:-1] + mids:
            (expect,) = [i for i, c in enumerate(cells) if c.contains(x)]
            assert part.position_of(x) == expect
        assert [part.describe_cell(i) for i in range(len(part))] == list(map(repr, cells))
        if n:
            walk = cell_walk_boundaries(oracle_cells(domain, n - 1, chain[n - 1].cut_points()),
                                        cells)
            assert chain.refinement(n - 1, n).tolist() == walk


@pytest.mark.parametrize("name", TRIANGULAR)
def test_position_of_is_exact_where_floats_collide(name):
    """Fractions just below and just above each cut, whose float is that cut,
    every cut itself and a finite right end as a Fraction, located as the
    linear exact scan locates them."""
    domain, warp = TRIANGULAR[name]
    tiny = Fraction(1, 1 << 1100)  # far below half the spacing of any float cut
    for part in triangular_chain(warped_rows(6, warp), domain=domain).partitions:
        cuts = part.cut_points()
        finite = [Fraction(c) for c in cuts if math.isfinite(c)]
        near = [c + d for c in finite for d in (-tiny, tiny)]
        assert all(float(x) in cuts for x in near)
        for x in filter(domain.contains, near + cuts + finite):
            (expect,) = [j for j in range(len(cuts) - 1) if cuts[j] < x <= cuts[j + 1]]
            assert part.position_of(x) == expect


def _refinement_outcome(refine, coarse, fine):
    try:
        return refine(coarse, fine)
    except ValidationError as e:
        return e.code, str(e)


CHAINS = {
    "dyadic-open": lambda: dyadic_chain(Domain.unit(), depth=5),
    "dyadic-closed": lambda: dyadic_chain(Domain.unit(closed_left=True), depth=5),
    "triangular-real": lambda: triangular_chain(warped_rows(5, TRIANGULAR["real-line"][1])),
    "triangular-unit": lambda: triangular_chain(warped_rows(5, TRIANGULAR["unit"][1]),
                                                domain=Domain.unit()),
    "triangular-dyadic-cuts": lambda: triangular_chain(warped_rows(5, lambda t: t),
                                                       domain=Domain.unit()),
}


@pytest.mark.parametrize("first, second, nested", [
    ("dyadic-open", "dyadic-open", True), ("dyadic-closed", "dyadic-closed", True),
    ("triangular-real", "triangular-real", True), ("triangular-unit", "triangular-unit", True),
    ("dyadic-open", "triangular-dyadic-cuts", True),
    ("triangular-dyadic-cuts", "dyadic-open", True),
    ("dyadic-open", "triangular-unit", False), ("triangular-unit", "dyadic-open", False),
])
def test_refine_map_matches_cell_walk(first, second, nested):
    """Every pair of levels, coarse to fine and reversed, gives the cell
    walk's boundaries or its straddle error, code and text alike; levels
    of nested chains map without error from coarse to fine."""
    a, b = CHAINS[first](), CHAINS[second]()
    for ca in a.partitions:
        for fb in b.partitions:
            got = _refinement_outcome(lambda c, f: refine_map(c, f).tolist(), ca, fb)
            want = _refinement_outcome(
                lambda c, f: cell_walk_boundaries(cells_of(c), cells_of(f)), ca, fb)
            assert got == want, (ca.level, fb.level)
            if nested and ca.level <= fb.level:
                assert isinstance(got, list), got


# --- whole-row validation against the per-value loop ------------------------

def _old_triangular_checks(rows, domain):
    """The validation loop of `triangular_chain` as it was written before it
    checked whole rows, one value at a time: raises the first violation.
    An interior cut lies strictly inside the domain, not on its right end."""
    parsed = []
    for n, row in enumerate(rows, start=1):
        row = [float(v) for v in row]
        if len(row) != (1 << n) - 1:
            raise ValidationError(
                "partition/row-length",
                f"row {n} has {len(row)} points, expected {(1 << n) - 1}",
            )
        for m, v in enumerate(row, start=1):
            if not np.isfinite(v):
                raise ValidationError("partition/ordering", f"q[{n}][{m}]={v!r} is not finite")
            if not domain.left < v < domain.right:
                raise ValidationError(
                    "partition/domain",
                    f"q[{n}][{m}]={v!r} lies outside the domain {domain.describe()}",
                )
        for m in range(1, len(row)):
            if not row[m - 1] < row[m]:
                raise ValidationError(
                    "partition/ordering",
                    f"row {n} is not strictly increasing at (n, m)=({n}, {m + 1}): "
                    f"q[{n}][{m + 1}]={row[m]!r} <= q[{n}][{m}]={row[m - 1]!r}",
                )
        if n > 1:
            prev = parsed[-1]
            for m in range(1, len(prev) + 1):
                if row[2 * m - 1] != prev[m - 1]:
                    raise ValidationError(
                        "partition/nesting",
                        f"nesting violated at (n, m)=({n}, {2 * m}): "
                        f"q[{n}][{2 * m}]={row[2 * m - 1]!r} != q[{n - 1}][{m}]={prev[m - 1]!r}",
                    )
        parsed.append(row)
    return parsed


ROW_DOMAINS = {
    "real-line": (Domain.real_line(), lambda t: (2.0 * t - 1.0) ** 3),
    "unit": (Domain.unit(), lambda t: t * t),
    # float(1/3) lies below 1/3 and float(2/3) above 2/3: both outside
    "thirds": (Domain(Fraction(1, 3), Fraction(2, 3)), lambda t: 1 / 3 + t / 3 + 1e-9),
    # float(1/5) lies above 1/5 and float(7/5) below 7/5: both inside
    "fifths": (Domain(Fraction(1, 5), Fraction(7, 5)), lambda t: 0.2 + 1.2 * t),
}


def _outcome(build):
    try:
        return build()
    except ValidationError as e:
        return e.code, str(e)


@pytest.mark.parametrize("name", ROW_DOMAINS)
def test_whole_row_checks_report_what_the_per_value_loop_reports(name):
    """Rows with non-finite, out-of-domain, unordered and unnested values,
    one or two at a time, get the per-value loop's first error, code and
    text; values at an exact domain end's float are compared exactly."""
    domain, warp = ROW_DOMAINS[name]
    rows = warped_rows(5, warp)
    ends = [float(domain.left), float(domain.right)]
    specials = [math.nan, math.inf, -math.inf, *ends,
                *(math.nextafter(e, s) for e in ends for s in (-math.inf, math.inf)
                  if math.isfinite(e)), 0.0, -0.0, 1.0, 2.0]
    rng = random.Random(name)
    cases = [[]]
    for n in range(5):
        for m in sorted({0, len(rows[n]) // 2, len(rows[n]) - 1, rng.randrange(len(rows[n]))}):
            row = rows[n]
            cases += [[(n, m, v)] for v in specials]
            cases.append([(n, m, row[m] + 1e-12)])  # off the row above where m is odd
            if m > 0:
                cases.append([(n, m, row[m - 1])])  # a repeated cut
            if m + 1 < len(row):
                cases.append([(n, m, row[m + 1] + 1e-3)])  # past its right neighbour
    cases += [[rng.choice(cases[1:])[0], rng.choice(cases[1:])[0]] for _ in range(60)]
    assert len(cases) > 200
    for changes in cases:
        mutated = [list(row) for row in rows]
        for n, m, v in changes:
            mutated[n][m] = v
        want = _outcome(lambda: _old_triangular_checks(mutated, domain))
        got = _outcome(lambda: triangular_chain(mutated, domain=domain))
        if isinstance(want, tuple):
            assert got == want, changes
        else:
            assert [p.cut_points()[1:-1] for p in got.partitions[1:]] == want, changes


@pytest.mark.parametrize("make, code, message", [
    (lambda: refine_map(Partition(Domain.unit(), 1), Partition(Domain(Fraction(0), Fraction(2)), 2)),
     "refinement/domain", "partitions live on different domains"),
    (lambda: PartitionChain(()), "chain/empty", "a chain needs at least level 0"),
    (lambda: dyadic_chain(depth=-1), "partition/depth", "depth must be >= 0, got -1"),
    (lambda: triangular_chain([[0.0], [-1.0, 1.0]]), "partition/row-length",
     "row 2 has 2 points, expected 3"),
], ids=["refinement-across-domains", "empty-chain", "negative-dyadic-depth", "row-length"])
def test_malformed_partitions_are_refused(make, code, message):
    with pytest.raises(ValidationError) as e:
        make()
    assert (e.value.code, str(e.value)) == (code, message)
