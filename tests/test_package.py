import copy
import importlib
import inspect
import pickle

import pytest

import disclosure_lab


def test_every_export_is_its_home_modules_object():
    homes = disclosure_lab._EXPORTS
    assert sorted(n for names in homes.values() for n in names) == sorted(
        disclosure_lab.__all__
    )
    for module, names in homes.items():
        home = importlib.import_module(f"disclosure_lab.{module}")
        for name in names:
            assert disclosure_lab.__getattr__(name) is getattr(home, name)
            assert getattr(disclosure_lab, name) is getattr(home, name)


def test_all_is_listed_once_and_by_dir():
    names = disclosure_lab.__all__
    assert len(set(names)) == len(names)
    assert set(names) <= set(dir(disclosure_lab))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from disclosure_lab import *", namespace)
    for name in disclosure_lab.__all__:
        assert namespace[name] is getattr(disclosure_lab, name)


def test_submodules_still_import_from_the_package():
    from disclosure_lab import cli, design

    assert inspect.ismodule(cli) and cli.__name__ == "disclosure_lab.cli"
    assert inspect.ismodule(design) and design.__name__ == "disclosure_lab.design"


def test_unknown_name_raises_attribute_error():
    message = "module 'disclosure_lab' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=f"^{message}$"):
        disclosure_lab.no_such_name


def _value_cases():
    """Two argument tuples per value class, differing in every field, so
    that swapping in any one field of the second still builds a valid
    value."""
    from disclosure_lab import (
        BiPoolingSolution, DeterministicRepresentation, GameSpec,
        ImplementabilityReport, IntervalUnion, MeanDistribution, OREAudit,
        OREResult, Prior, PrudenceReport, Segment, SellerModel, SweepResult,
        SweepRow, Voter, VotingModel, interval,
    )
    from disclosure_lab.representation import (
        ICReport, ObedienceReport, ObedienceRow, Prop2Report, Prop2Violation,
    )

    flat = Prior("uniform", (0.0, 0.5, 1.0), (1.0, 1.0, 1.0))
    peak = Prior("plinear", (0.0, 0.4, 1.0), (1.0, 2.0, 1.0))
    reps = [
        DeterministicRepresentation((interval(0.0, c), interval(c, 1.0)))
        for c in (0.5, 0.4)
    ]
    dists = [
        MeanDistribution(((0.5, 1.0),)),
        MeanDistribution(((0.4, 0.5),), interval(0.1, 0.2), 2.0, 0.5),
    ]
    segs = [
        Segment(interval(0.0, 0.5), "pooling", (0.25,)),
        Segment(interval(0.5, 1.0), "revealed", ()),
    ]
    rows = [
        ObedienceRow(0, 0.25, 0.0, 0.5, True),
        ObedienceRow(1, 0.75, 0.5, 1.0, False),
    ]
    ics = [ICReport(True), ICReport(False, 1, interval(0.2, 0.3))]
    bad = Prop2Violation("nested-pair", 2, 1, 0.7, 0.55)
    voters = [Voter(-0.2, -0.9, 1.0, 2.0), Voter(-0.3, -1.0, 1.5, 2.5)]
    sweep = [SweepRow(0.0, 0.7, 1.0, True), SweepRow(0.1, 0.6, 0.9, False)]
    crra = [{"kind": "crra", "sigma": 0.5}, {"kind": "crra", "sigma": 0.25}]
    return [
        (IntervalUnion, (((0.1, 0.2),),), (((0.3, 0.5),),)),
        (Prior, ("uniform", flat.knots, flat.density),
         ("plinear", peak.knots, (1.0, 2.0, 1.0))),
        (GameSpec, (flat, (0.0, 0.3, 1.0), (0.0, 1.0)),
         (peak, (0.0, 0.6, 1.0), (0.0, 2.0))),
        (MeanDistribution, (((0.5, 1.0),), IntervalUnion.empty(), 1.0, None),
         (((0.4, 0.5),), interval(0.1, 0.2), 2.0, 0.5)),
        (DeterministicRepresentation, (reps[0].cells,), (reps[1].cells,)),
        (ObedienceRow, (0, 0.25, 0.0, 0.5, True), (1, 0.75, 0.5, 1.0, False)),
        (ObedienceReport, (True, (rows[0],)), (False, tuple(rows))),
        (ICReport, (True, None, None), (False, 1, interval(0.2, 0.3))),
        (Prop2Violation, ("skipped-action", 1, 0, 0.6, 0.5),
         ("nested-pair", 2, 1, 0.7, 0.55)),
        (Prop2Report, (True, ()), (False, (bad,))),
        (Segment, (interval(0.0, 0.5), "pooling", (0.25,)),
         (interval(0.5, 1.0), "revealed", ())),
        (BiPoolingSolution, (dists[0], (segs[0],), reps[0]),
         (dists[1], tuple(segs), reps[1])),
        (ImplementabilityReport, (True, reps[0], (), 1.0),
         (False, reps[1], (bad,), 2.0)),
        (OREAudit, (True, ObedienceReport(True, ()), ics[0], 1.0),
         (False, ObedienceReport(False, (rows[1],)), ics[1], 2.0)),
        (OREResult, (reps[0], 1.0, True), (reps[1], 2.0, False)),
        (SellerModel, (crra[0], 0.3, 0.0, flat), (crra[1], 0.4, 0.1, peak)),
        (PrudenceReport, (True, True, True, True), (False, False, False, False)),
        (Voter, (-0.2, -0.9, 1.0, 2.0), (-0.3, -1.0, 1.5, 2.5)),
        (VotingModel, ((voters[0],), 1.0, 2.0, flat),
         ((voters[1],), 1.5, 3.0, peak)),
        (SweepRow, (0.0, 0.7, 1.0, True), (0.1, 0.6, 0.9, False)),
        (SweepResult, ((sweep[0],), False), (tuple(sweep), True)),
    ]


VALUE_CASES = _value_cases()


@pytest.mark.parametrize(
    "cls,one,other", VALUE_CASES, ids=[case[0].__name__ for case in VALUE_CASES]
)
def test_value_classes_compare_hash_print_and_freeze_by_their_fields(
    cls, one, other
):
    """Equality, hashing, repr and immutability read the class's field
    tuple, which its hand-written __init__ takes in the same order."""
    fields = cls._fields
    code = cls.__init__.__code__
    assert code.co_varnames[1:code.co_argcount] == fields
    value = cls(*one)
    assert cls(**dict(zip(fields, one))) == value
    assert value == cls(*one) and not value != cls(*one)
    for k in range(len(fields)):
        changed = cls(*one[:k], other[k], *one[k + 1:])
        assert value != changed and not value == changed, fields[k]
    if cls.__name__ == "SellerModel":  # its utility is a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(cls(*one))
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{cls.__name__}({shown})"
    for name in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        if name in fields:
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert value == cls(*one)
    slots = [repr(getattr(value, name)) for name in cls.__slots__]
    for copied in (
        copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
    ):
        assert copied == value
        assert [repr(getattr(copied, name)) for name in cls.__slots__] == slots


def test_value_classes_print_and_default_as_before():
    from disclosure_lab import (
        IntervalUnion, MeanDistribution, Segment, SellerModel, Voter,
        VotingModel, interval, uniform_prior,
    )
    from disclosure_lab.representation import ICReport

    union = IntervalUnion.of((0.1, 0.2))
    assert repr(union) == "IntervalUnion(pieces=((0.1, 0.2),))"
    assert repr(Segment(interval(0.0, 0.5), "pooling", (0.25,))) == (
        "Segment(outer=IntervalUnion(pieces=((0.0, 0.5),)), kind='pooling', "
        "means=(0.25,))"
    )
    dist = MeanDistribution(atoms=((0.5, 1.0),))
    assert dist.revealed == IntervalUnion.empty()
    assert (dist.payoff, dist.pool_threshold) == (0.0, None)
    assert ICReport(ok=True) == ICReport(True, None, None)
    seller = SellerModel({"kind": "crra", "sigma": 0.5}, price=0.3)
    assert (seller.cost, seller.prior) == (0.0, uniform_prior())
    model = VotingModel((Voter(-0.2, -0.9, 1.0, 2.0),), v_ab=1.0, v_b=2.0)
    assert model.prior == uniform_prior()
