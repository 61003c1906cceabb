"""Command-line interface tests: exit codes, JSON round-trips, determinism."""

import json
from fractions import Fraction as F

import pytest

from berkdyn import Backend, PADIC
from berkdyn.berkovich import BerkPoint
from berkdyn.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBasics:
    def test_image_monomial(self, capsys):
        code, out = run(
            capsys,
            "image",
            "--backend",
            "padic:p=3,prec=40",
            "--map",
            "z^2",
            "--point",
            '{"t":"II","c":"0","logr":"1"}',
        )
        assert code == 0
        assert json.loads(out)["image"] == {"t": "II", "c": "0", "logr": "2"}

    def test_eval_norm(self, capsys):
        code, out = run(
            capsys,
            "eval-norm",
            "--backend",
            "padic:p=3",
            "--map",
            "z^2 + 3",
            "--point",
            '{"t":"II","c":"0","logr":"1"}',
        )
        assert code == 0
        assert json.loads(out)["valuation"] == {"tag": "exact", "value": "1"}

    def test_degtop_and_good_reduction(self, capsys):
        code, out = run(capsys, "degtop", "--backend", "laurentfp:p=2", "--map", "z^2 + z")
        assert code == 0
        assert json.loads(out) == {"degree": 2, "topological_degree": 2}
        code, out = run(capsys, "good-reduction", "--backend", "padic:p=3", "--map", "z^2+1")
        assert json.loads(out) == {"good_reduction": True}

    def test_exceptional(self, capsys):
        code, out = run(capsys, "exceptional", "--backend", "padic:p=3", "--map", "z^2")
        pts = json.loads(out)["exceptional"]
        assert {"t": "inf"} in pts
        assert {"t": "I", "v": "0"} in pts

    def test_local_degree(self, capsys):
        code, out = run(
            capsys,
            "local-degree",
            "--backend",
            "padic:p=3",
            "--map",
            "(z^5 - 243)/z^2",
            "--point",
            '{"t":"II","c":"0","logr":"1/2"}',
        )
        assert json.loads(out) == {"local_degree": 3}

    def test_const_binding(self, capsys):
        code, out = run(
            capsys,
            "image",
            "--backend",
            "padic:p=3",
            "--map",
            "a*z^2",
            "--const",
            "a=1/3",
            "--point",
            '{"t":"II","c":"0","logr":"1"}',
        )
        assert code == 0
        assert json.loads(out)["image"] == {"t": "II", "c": "0", "logr": "1"}


class TestFiberRoundTrip:
    def test_preimages_round_trip(self, capsys):
        code, out = run(
            capsys,
            "preimages",
            "--backend",
            "padic:p=2",
            "--map",
            "(z^2 - z^4)/2",
            "--point",
            '{"t":"II","c":"1","logr":"1/2"}',
        )
        assert code == 0
        data = json.loads(out)
        assert data["total_multiplicity"] == 4
        bk = Backend(PADIC, p=2)
        pts = [BerkPoint.from_json(bk, d["point"]) for d in data["fiber"]]
        assert all(p.is_type_ii and p.logr == F(3, 4) for p in pts)
        assert len(set(id(p) for p in pts)) == 2 and pts[0] != pts[1]


class TestEquilibrium:
    def test_report_with_partition(self, capsys):
        code, out = run(
            capsys,
            "equilibrium",
            "--backend",
            "padic:p=3",
            "--map",
            "(z^5 - 243)/z^2",
            "--iters",
            "2",
            "--check-invariance",
            "--partition",
            "residue:depth=1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["invariance_defect"]["value"] == "0"
        masses = [F(d["mass"]["value"]) for d in data["measure"]]
        assert sum(masses) == 1
        part = {k: F(v["value"]) for k, v in data["partition"].items()}
        assert sum(part.values()) == 1

    def test_entropy_bounds_good_reduction(self, capsys):
        code, out = run(
            capsys, "entropy-bounds", "--backend", "padic:p=3", "--map", "z^2+1"
        )
        data = json.loads(out)
        assert data["h_lower"]["value"] == pytest.approx(0.0)
        assert data["degtop_log"]["value"] == pytest.approx(0.6931471805599453)

    def test_detect_pgr(self, capsys):
        code, out = run(capsys, "detect-pgr", "--backend", "padic:p=3", "--map", "z^2+1")
        assert code == 0
        assert json.loads(out) == {"single_invariant_atom": True}

    def test_periodic_measure(self, capsys):
        code, out = run(
            capsys,
            "periodic-measure",
            "--backend",
            "padic:p=3",
            "--map",
            "z^2",
            "--n",
            "1",
        )
        data = json.loads(out)
        assert data["total"]["value"] == "3"
        assert {"t": "inf"} in [d["point"] for d in data["solutions"]]


class TestSkeletonAndShift:
    def test_skeleton_report(self, capsys):
        code, out = run(
            capsys,
            "skeleton",
            "--example",
            "R1",
            "--report",
            "entropies,invariant-set,cross-validate",
        )
        assert code == 0
        data = json.loads(out)
        assert data["invariant_set"]["kind"] == "FULL_SEGMENT"
        assert data["entropies"]["h_eq"]["value"] == pytest.approx(1.0549201679861442)
        assert data["cross_validate"]["checked"] >= 100

    def test_skeleton_dot(self, capsys):
        code, out = run(
            capsys, "skeleton", "--example", "R0", "--dot", "--depth", "2"
        )
        assert code == 0
        assert out.startswith("digraph cylinders {")
        assert out.count("->") == 2 + 4

    def test_shift_with_solver_check(self, capsys):
        code, out = run(
            capsys, "shift", "--p", "2", "--depth", "2", "--check-against-solver"
        )
        assert code == 0
        data = json.loads(out)
        assert data["radii"] == [
            {"tag": "exact", "value": "1/2"},
            {"tag": "exact", "value": "3/4"},
        ]
        assert data["counts"] == [2, 4]
        assert data["solver_check"] == "PASS"
        assert [len(lvl) for lvl in data["levels"]] == [1, 2, 4]

    def test_examples_run_all(self, capsys):
        code, out = run(capsys, "examples", "run-all")
        assert code == 0
        for name in ("R0", "R1", "LATTES", "SHIFT"):
            assert any(
                line.startswith(name) and "PASS" in line for line in out.splitlines()
            )


class TestErrorsAndDeterminism:
    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2

    def test_bad_backend_exit_2(self, capsys):
        code = main(
            ["image", "--backend", "weird:p=3", "--map", "z", "--point", "can"]
        )
        assert code == 2

    def test_backend_key_it_does_not_take_exit_2(self, capsys):
        # padic has no residue degree k; it is refused, not ignored
        code = main(
            ["image", "--backend", "padic:p=3,k=2", "--map", "z", "--point", "can"]
        )
        assert code == 2
        assert "takes no key k" in capsys.readouterr().err

    def test_computational_error_exit_3(self, capsys):
        code, out = run(
            capsys,
            "detect-pgr",
            "--backend",
            "padic:p=3",
            "--map",
            "(z^5 - 243)/z^2",
            "--n-max",
            "1",
        )
        assert code == 3
        err = json.loads(out)
        assert err["error"] == "Inconclusive"
        assert "message" in err

    def test_denominator_divisible_by_p_exit_3(self, capsys):
        # 1/3 has no residue in characteristic 3: a typed error, not a crash
        code, out = run(
            capsys,
            "image",
            "--backend",
            "laurentfp:p=3",
            "--map",
            "z",
            "--point",
            '{"t":"II","c":"1/3","logr":"0"}',
        )
        assert code == 3
        assert json.loads(out)["error"] == "DivisionByZero"

    def test_deterministic_output(self, capsys):
        argv = [
            "equilibrium",
            "--backend",
            "padic:p=3",
            "--map",
            "(z^5 - 243)/z^2",
            "--iters",
            "3",
        ]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run(
            capsys,
            "degtop",
            "--backend",
            "padic:p=3",
            "--map",
            "z^3",
            "--out",
            str(path),
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text()) == {
            "degree": 3,
            "topological_degree": 3,
        }

    def test_precision_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BERK_PRECISION", "60")
        code, out = run(
            capsys,
            "image",
            "--backend",
            "padic:p=3",
            "--map",
            "z^2",
            "--point",
            '{"t":"II","c":"0","logr":"1"}',
        )
        assert code == 0
        assert json.loads(out)["image"]["logr"] == "2"
