"""The contract of the package's eight immutable value classes: keyword
construction, frozen attributes, equality and hashing, and the validation
messages of their constructors."""

import ast
import copy
import pickle
from fractions import Fraction as F
from pathlib import Path

import pytest

from expriordan import catalog
from expriordan.catalog import CatalogEntry, SampleGrid
from expriordan.orthopoly import Recurrence
from expriordan.production import JacobiParams, ZAPair
from expriordan.riordan import ExpRiordan, TriMatrix, build
from expriordan.series import Series, one, series, x

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "expriordan"


def _pair() -> tuple[Series, Series]:
    return series([1, 0, 1], order=3), x(3)


def _make(cls):
    """A keyword-constructed instance of ``cls``; two calls give equal values."""
    g, f = _pair()
    if cls is Series:
        return Series(coeffs=(1, F(1, 2), 0))
    if cls is TriMatrix:
        return TriMatrix(rows=((1, 1), (0, 1)))
    if cls is ExpRiordan:
        return ExpRiordan(g=g, f=f, matrix=build(g, f).matrix)
    if cls is ZAPair:
        return ZAPair(z=one(3), a=one(3))
    if cls is JacobiParams:
        return JacobiParams(alpha=0, beta=-2, gamma=0, delta=-1)
    if cls is Recurrence:
        return Recurrence(b=(0, 1), lam=(F(-1, 2),))
    if cls is SampleGrid:
        return SampleGrid(t_min=-1.0, t_max=1.0, samples=5)
    e = catalog.entry("tanh")
    return CatalogEntry(
        id=e.id, g_label=e.g_label, f_label=e.f_label, notes=e.notes,
        g_series=e.g_series, f_eval=e.f_eval, fprime_eval=e.fprime_eval,
        jacobi=e.jacobi,
    )


FIELDS = {
    Series: ("coeffs",),
    TriMatrix: ("rows",),
    ExpRiordan: ("g", "f", "matrix"),
    ZAPair: ("z", "a"),
    JacobiParams: ("alpha", "beta", "gamma", "delta"),
    Recurrence: ("b", "lam"),
    SampleGrid: ("t_min", "t_max", "samples"),
    CatalogEntry: (
        "id", "g_label", "f_label", "notes", "g_series", "f_eval", "fprime_eval",
        "f_series", "inverse_g", "inverse_f", "a_closed", "z_closed", "jacobi",
        "inverse_jacobi",
    ),
}
CLASSES = list(FIELDS)
HASHABLE = [JacobiParams, Recurrence, SampleGrid, CatalogEntry]
UNHASHABLE = [Series, TriMatrix, ExpRiordan]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_attributes_are_frozen(cls):
    value = _make(cls)
    for name in FIELDS[cls]:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_values_compare_equal(cls):
    a, b = _make(cls), _make(cls)
    assert a == b and not a != b
    assert a != object()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copies_and_pickles_are_equal(cls):
    value = _make(cls)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    if cls is not CatalogEntry:  # its fields are lambdas
        assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda c: c.__name__)
def test_equal_values_hash_equal(cls):
    a, b = _make(cls), _make(cls)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", UNHASHABLE, ids=lambda c: c.__name__)
def test_jets_and_matrices_are_unhashable(cls):
    with pytest.raises(TypeError):
        hash(_make(cls))


def test_za_pair_hashes_through_its_series():
    # Hashing goes by the fields, and the fields are unhashable jets.
    with pytest.raises(TypeError):
        hash(_make(ZAPair))


def test_fields_differ_by_type_and_value():
    assert JacobiParams(0, -2, 0, -1) != JacobiParams(0, -2, 0, 0)
    assert SampleGrid() != SampleGrid(samples=201)
    assert Recurrence(b=(0,), lam=()) != JacobiParams(0, 0, 0, 0)
    assert catalog.entry("tanh") != catalog.entry("tanh2")


def test_constructors_normalize_to_fractions():
    params = JacobiParams(0, -2, 0, -1)
    assert all(type(getattr(params, k)) is F for k in ("alpha", "beta", "gamma", "delta"))
    assert (params.beta, params.delta) == (F(-2), F(-1))
    rec = Recurrence(b=[0, 1], lam=[2])
    assert (rec.b, rec.lam) == ((F(0), F(1)), (F(2),))
    assert all(type(v) is F for v in (*rec.b, *rec.lam))
    s = Series(coeffs=[1, F(1, 2)])
    assert type(s.coeffs) is tuple and all(type(c) is F for c in s.coeffs)
    m = TriMatrix([[1, 2], [3, 4]])
    assert m.rows == ((F(1), F(2)), (F(3), F(4)))


def test_positional_arguments_and_defaults():
    assert SampleGrid() == SampleGrid(-4.0, 4.0, 200)
    assert SampleGrid(-1.0) == SampleGrid(t_min=-1.0, t_max=4.0, samples=200)
    e = _make(CatalogEntry)
    assert (e.f_series, e.inverse_g, e.inverse_f, e.a_closed, e.z_closed) == (None,) * 5
    assert e.inverse_jacobi is None and e.jacobi == JacobiParams(0, -2, 0, -1)
    g, f = _pair()
    arr = ExpRiordan(g, f, build(g, f).matrix)
    assert (arr.g, arr.f) == (g, f)
    assert ZAPair(one(3), one(3)) == _make(ZAPair)


def test_reprs():
    assert repr(JacobiParams(0, 1, 0, 0)) == (
        "JacobiParams(alpha=Fraction(0, 1), beta=Fraction(1, 1), "
        "gamma=Fraction(0, 1), delta=Fraction(0, 1))"
    )
    assert repr(SampleGrid()) == "SampleGrid(t_min=-4.0, t_max=4.0, samples=200)"
    assert repr(Recurrence(b=(1,), lam=())) == "Recurrence(b=(Fraction(1, 1),), lam=())"
    assert repr(_make(ZAPair)) == "ZAPair(z=Series((1, 0, 0, 0)), a=Series((1, 0, 0, 0)))"
    assert repr(_make(Series)) == "Series((1, 1/2, 0))"
    assert repr(_make(TriMatrix)) == "TriMatrix(dim=2)"
    assert repr(_make(ExpRiordan)) == "ExpRiordan(order=3)"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Series(()), "a series needs at least its constant coefficient"),
        (lambda: TriMatrix(()), "matrix must be square and non-empty"),
        (lambda: TriMatrix(((1, 0), (1,))), "matrix must be square and non-empty"),
        (
            lambda: TriMatrix(((1, 0, 1), (0, 1, 0), (0, 0, 1))),
            "row 0 has entries above the superdiagonal",
        ),
        (lambda: ZAPair(z=one(2), a=series([2], order=2)), "the A-sequence must start with 1"),
        (lambda: SampleGrid(t_min=float("nan")), "t_min and t_max must be finite"),
        (lambda: SampleGrid(t_max=float("-inf")), "t_min and t_max must be finite"),
        (lambda: SampleGrid(1.0, 1.0), "t_min must be strictly below t_max"),
        (lambda: SampleGrid(samples=1), "need at least two samples"),
        (lambda: SampleGrid(-1e308, 1e308), "t_max - t_min must be finite"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_frozen_holds_the_one_equality():
    # Every value class compares field by field through _Frozen.__eq__.
    owners = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                owners += [
                    node.name for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__eq__"
                ]
    assert owners == ["_Frozen"]
