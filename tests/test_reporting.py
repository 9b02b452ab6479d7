import pytest

from algebroids import algebroid as A, expr as E
from algebroids.algebroid import check_antisymmetry
from algebroids.reporting import CheckReport, residual_row, residual_rows


def no_sampling(*args, **kwargs):
    raise AssertionError("max_residual was called")


class TestResidualRow:
    def test_identical_sides_are_certified_without_evaluation(self):
        # log has no value at half of these points, so sampling would raise.
        e = E.log(E.var("x1"))
        sampler = E.Sampler(points=50, seed=1, ranges={"x1": (-1.0, 1.0)})
        with pytest.raises(E.EvaluationError):
            E.max_residual(e, e, sampler)
        report = CheckReport("identity")
        residual_row(report, "same", (1,), e, e, sampler, 1e-12)
        [row] = report.rows
        assert (row.residual, row.passed, row.witness) == (0.0, True, None)
        assert "witness" not in row.to_jsonable()

    def test_other_rows_are_sampled_with_a_witness(self):
        sampler = E.Sampler(points=20, seed=1)
        lhs, rhs = E.parse("x1^2"), E.parse("x1*x1 + 0.001*x2")
        report = CheckReport("sampled")
        residual_row(report, "gap", (), lhs, rhs, sampler, 1e-8)
        [row] = report.rows
        assert (row.residual, row.witness) == E.max_residual(lhs, rhs, sampler)
        assert not row.passed and row.witness is not None

    def test_rows_are_indexed_from_one_after_the_prefix(self, monkeypatch):
        monkeypatch.setattr(E, "max_residual", no_sampling)
        parts = (E.var("x1"), E.parse("x1 + x2"), E.ZERO)
        report = CheckReport("rows")
        residual_rows(report, "part", (7,), parts, parts, E.Sampler(points=5), 1e-8)
        assert [(row.name, row.indices, row.residual) for row in report.rows] == [
            ("part", (7, 1), 0.0),
            ("part", (7, 2), 0.0),
            ("part", (7, 3), 0.0),
        ]


class TestAntisymmetry:
    def test_rows_are_decided_by_identity(self, monkeypatch, lie_algebroid):
        monkeypatch.setattr(E, "max_residual", no_sampling)
        monkeypatch.setattr(A, "max_residual", no_sampling, raising=False)
        alg = lie_algebroid.algebroid
        report = check_antisymmetry(alg, E.Sampler(points=10, seed=1))
        p = alg.rank
        assert len(report.rows) == p * (p + 1) // 2 * p
        assert report.passed
        assert all(row.residual == 0.0 and row.witness is None for row in report.rows)
