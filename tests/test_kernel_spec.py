"""Expression grammar and file loading for custom kernels."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmarkov import kernel_spec
from nlmarkov.kernel_spec import MAX_NESTING, KernelSpecError, compile_kernel_spec
from nlmarkov.kernels import MeasureGrid, validate


def parse_entry_expression(text: str, space_size: int):
    """One matrix-entry expression compiled on its own, as a function of
    the measure weights: (n,) weights give a scalar, (B, n) weights a
    (B,) array.  The grammar's oracle, and the per-entry reference for
    kernels whose entries compile into one shared program."""
    compiler = kernel_spec._Compiler(space_size)
    root = compiler.compile(text)
    return lambda w: kernel_spec._run(compiler.code, np.asarray(w, dtype=float))[root][()]


MIXTURE_DOC = {
    "space_size": 2,
    "label": "half-mix",
    "entries": [
        ["0.5*0.7 + 0.5*nu(1)", "0.5*0.3 + 0.5*nu(2)"],
        ["0.5*0.4 + 0.5*nu(1)", "0.5*0.6 + 0.5*nu(2)"],
    ],
}


def test_expression_arithmetic():
    w = np.array([0.25, 0.75])
    cases = {
        "0.5": 0.5,
        "1e-2": 0.01,
        "nu(1)": 0.25,
        "nu(2)": 0.75,
        "nu(1) + nu(2)": 1.0,
        "nu(2) - nu(1)": 0.5,
        "2 * nu(1)": 0.5,
        "-nu(1) + 1": 0.75,
        "min(nu(1), 0.5)": 0.25,
        "max(nu(1), 0.5)": 0.5,
        "max(min(nu(2), 0.6), 0.4)": 0.6,
        "(nu(1) + 1) * 0.5": 0.625,
        "1 - 2 * min(nu(1), nu(2))": 0.5,
        "-" * 40 + "nu(1)": 0.25,
        "(" * 60 + "nu(2)" + ")" * 60: 0.75,
    }
    for text, want in cases.items():
        fn = parse_entry_expression(text, 2)
        assert fn(w) == pytest.approx(want, abs=1e-15), text


def test_expression_is_left_associative():
    fn = parse_entry_expression("1 - 0.25 - 0.25", 1)
    assert fn(np.array([1.0])) == pytest.approx(0.5)


def test_expression_rejections():
    for text in (
        "",
        "   ",
        "nu(0)",  # states are 1-based
        "nu(3)",  # out of range for 2 states
        "nu(1.5)",
        "nu(1) / 2",  # no division
        "nu(1) ** 2",
        "x + 1",
        "min(nu(1))",
        "(nu(1)",
        "nu(1) nu(2)",
        "1 +",
        "nu(1e400)",  # the index overflows int
        "(" * 2000 + "1" + ")" * 2000,  # nesting would exhaust the stack
        "-" * 3000 + "1",
        "-" * MAX_NESTING + "1",
    ):
        with pytest.raises(KernelSpecError):
            parse_entry_expression(text, 2)


def test_compile_builds_working_kernel():
    k = compile_kernel_spec(json.dumps(MIXTURE_DOC))
    assert k.space_size == 2
    assert k.label == "half-mix"
    mat = k.matrix([1.0, 0.0])
    assert mat[0].tolist() == pytest.approx([0.5 * 0.7 + 0.5, 0.5 * 0.3])


def test_batched_evaluation_matches_single_measures():
    fn = parse_entry_expression("max(min(0.1 + 0.2*nu(2), 0.3), 0.1) - nu(1)", 2)
    w = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]])
    assert fn(w).shape == (3,)
    assert fn(w).tolist() == [fn(row) for row in w]
    assert parse_entry_expression("0.5", 2)(w).tolist() == [0.5, 0.5, 0.5]


def test_repeated_subexpressions_compile_once():
    from nlmarkov.kernel_spec import _Compiler

    doc = json.loads((Path(__file__).parents[1] / "bench" / "spec5.json").read_text())
    compiler = _Compiler(5)
    for row in doc["entries"]:
        for text in row:
            compiler.compile(text)
    # 5 leaves nu(k), 4 constants, 4 x 5 clamp steps, 19 distinct
    # running differences on the diagonals
    assert len(compiler.code) == 48


def test_load_rejects_malformed_documents():
    for text in (
        "{not json",
        '{"entries": [["1"]]}',  # missing space_size
        '{"space_size": 2, "entries": [["1", "0"]]}',  # not 2x2
        '{"space_size": 0, "entries": []}',
        "42",
        '["space_size"]',
    ):
        with pytest.raises(KernelSpecError):
            compile_kernel_spec(text)


def test_load_validates_rows_on_the_grid():
    # rows sum to 1 only at nu = (0.5, 0.5); the sweep must catch it
    from nlmarkov.kernels import KernelValidationError

    doc = {
        "space_size": 2,
        "entries": [["nu(1)", "nu(1)"], ["0.5", "0.5"]],
    }
    kernel = compile_kernel_spec(json.dumps(doc))
    with pytest.raises(KernelValidationError, match="row"):
        validate(kernel)


@pytest.mark.parametrize("row", [
    ["1e308*10", "0-1e308*10"],
    ["1e999-1e999", "0-1e308*10"],
    ["1e308", "1e308"],
], ids=["infinities", "nan", "sum-overflow"])
def test_entries_past_the_float_range_fail_the_row_checks_without_a_warning(row):
    # a row of both infinities, whose sum is NaN; a NaN beside an
    # infinity; two finite entries whose sum is an infinity
    from nlmarkov.ergodicity import evolve
    from nlmarkov.kernels import KernelValidationError
    from nlmarkov.measures import DiscreteMeasure

    doc = {"space_size": 2, "entries": [row, ["0.5", "0.5"]]}
    kernel = compile_kernel_spec(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KernelValidationError, match="row 0"):
            validate(kernel)
        if row[1].startswith("0-"):
            # the orbit's row check fails on its minimum before it sums
            with pytest.raises(KernelValidationError,
                               match="non-stochastic rows at step 1"):
                evolve(kernel, DiscreteMeasure.uniform(2), 3)


# ---------------------------------------------------------------------------
# Properties


GRAMMAR_PIECES = ["nu(", "min(", "max(", "(", ")", ",", "+", "-", "*", " ",
                  "1", "2.5", "1e400", "0.", "nu", "3", "e", "x"]


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(GRAMMAR_PIECES), max_size=30).map("".join),
))
def test_parser_raises_nothing_but_kernel_spec_error(text):
    try:
        fn = parse_entry_expression(text, 3)
    except KernelSpecError:
        return
    with np.errstate(all="ignore"):
        fn(np.array([0.2, 0.3, 0.5]))


# Expression trees: ("num", x), ("nu", k), ("neg", t), ("()", t) or
# (op, left, right) for op in + - * min max.
BINARY = ["+", "-", "*", "min", "max"]


def trees(n):
    leaves = st.one_of(
        st.tuples(st.just("num"), st.floats(0.0, 4.0)),
        st.tuples(st.just("nu"), st.integers(1, n)),
    )
    return st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(st.sampled_from(BINARY), kids, kids),
        st.tuples(st.sampled_from(["neg", "()"]), kids),
    ), max_leaves=10)


PRECEDENCE = {"+": 1, "-": 1, "*": 2}


def render(tree) -> tuple:
    """(text, precedence) of a tree, parenthesised only where the
    grammar needs it, so precedence and associativity are exercised."""
    op = tree[0]
    if op == "num":
        return repr(tree[1]), 3
    if op == "nu":
        return f"nu({tree[1]})", 3
    if op == "()":
        return f"({render(tree[1])[0]})", 3
    if op == "neg":
        text, prec = render(tree[1])
        return "-" + (text if prec == 3 else f"({text})"), 3
    if op in ("min", "max"):
        return f"{op}({render(tree[1])[0]}, {render(tree[2])[0]})", 3
    (left, lp), (right, rp) = render(tree[1]), render(tree[2])
    prec = PRECEDENCE[op]
    left = left if lp >= prec else f"({left})"
    right = right if rp > prec else f"({right})"  # operators associate left
    return f"{left} {op} {right}", prec


def reference(tree, w) -> float:
    """Scalar evaluation of a tree at one weight vector, in Python floats.
    min and max return the second operand on ties, as np.minimum and
    np.maximum do, so signed zeros agree too."""
    op = tree[0]
    if op == "num":
        return tree[1]
    if op == "nu":
        return float(w[tree[1] - 1])
    if op == "()":
        return reference(tree[1], w)
    if op == "neg":
        return -reference(tree[1], w)
    a, b = reference(tree[1], w), reference(tree[2], w)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "min":
        return a if a < b else b
    return a if a > b else b


@st.composite
def spec_kernels(draw):
    """(n, entry trees, weights): off-diagonal entry trees are random
    trees clamped to [0, 0.05], and each diagonal is 1 minus the rest of
    its row, so the kernel validates and its diagonals repeat the
    off-diagonal subtrees."""
    n = draw(st.integers(1, 4))
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                t = ("max", ("min", draw(trees(n)), ("num", 1.0)), ("num", 0.0))
                entries[i][j] = ("*", ("num", 0.05), t)
        diag = ("num", 1.0)
        for j in range(n):
            if j != i:
                diag = ("-", diag, entries[i][j])
        entries[i][i] = diag
    unit = st.floats(0.0, 1.0)
    w = np.array(draw(st.lists(st.lists(unit, min_size=n, max_size=n),
                               min_size=1, max_size=6)))
    return n, entries, w


@settings(max_examples=60, deadline=None)
@given(case=spec_kernels())
def test_batched_spec_kernel_matches_scalar_reference(case):
    n, entries, w = case
    doc = {"space_size": n,
           "entries": [[render(t)[0] for t in row] for row in entries]}
    kernel = compile_kernel_spec(json.dumps(doc))
    validate(kernel, MeasureGrid(n, 2))
    want = np.array([[[reference(t, x) for t in row] for row in entries] for x in w])
    assert kernel.matrix(w).tobytes() == want.tobytes()
    assert kernel.matrix(w[0]).tobytes() == want[0].tobytes()
    for i in range(n):
        for j in range(n):
            fn = parse_entry_expression(doc["entries"][i][j], n)
            assert fn(w).tobytes() == want[:, i, j].tobytes()
