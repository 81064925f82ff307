import json

import pytest
from click.testing import CliRunner

from twistdual.cli import main


def run(*args):
    return CliRunner().invoke(main, args)


class TestDual:
    def test_pgl2_order_three(self):
        res = run("dual", "--group", "PGL2", "--q-exp", "1/3")
        assert res.exit_code == 0
        assert "weight lattice: 3Z" in res.output
        assert "multipliers: [3]" in res.output
        assert "dual type: A1 (simply-connected)" in res.output

    def test_deterministic(self):
        a = run("dual", "--group", "Sp4", "--q-exp", "1/5")
        b = run("dual", "--group", "Sp4", "--q-exp", "1/5")
        assert a.exit_code == 0
        assert a.output == b.output

    def test_emit_round_trip(self, tmp_path):
        out = tmp_path / "dual.json"
        res = run("dual", "--group", "PGL2", "--q-exp", "1/3", "--emit", str(out))
        assert res.exit_code == 0
        raw = json.loads(out.read_text())
        assert raw["weight_sublattice"] == [[3]]
        assert raw["multipliers"] == [3]
        # the emitted datum reloads to an equal datum
        from twistdual.rootdata import RootDatum
        from twistdual.dualgroup import twisted_dual
        from twistdual.qform import qform_from_gram
        from twistdual import standard
        from fractions import Fraction
        td = twisted_dual(standard("PGL2"),
                          qform_from_gram(standard("PGL2"), [[Fraction(2, 3)]]))
        assert RootDatum.from_dict(raw) == td.datum
        res2 = run("validate", "--rd-file", str(out))
        assert res2.exit_code == 0
        assert "OK" in res2.output

    def test_form_file_reference(self, tmp_path):
        rd_file = tmp_path / "rd.json"
        rd_file.write_text(json.dumps({
            "rank": 1, "simple_roots": [[1]], "simple_coroots": [[2]],
            "name": "adjoint-a1"}))
        form_file = tmp_path / "form.json"
        form_file.write_text(json.dumps({
            "root_datum": "rd.json",
            "gram_rational": [[[2, 3]]],
            "gram_transcendental": [[[0, 1]]]}))
        res = run("dual", "--form-file", str(form_file))
        assert res.exit_code == 0
        assert "weight lattice: 3Z" in res.output

    def test_form_file_with_a_dropped_coroot(self, tmp_path):
        # Q = diag(2/3, tau) on SL2 x SL2: the second coroot has infinite order
        (tmp_path / "rd.json").write_text(json.dumps(
            {"rank": 2, "simple_roots": [[2, 0], [0, 2]],
             "simple_coroots": [[1, 0], [0, 1]], "name": "SL2xSL2"}))
        form_file = tmp_path / "form.json"
        form_file.write_text(json.dumps({
            "root_datum": "rd.json",
            "gram_rational": [[[2, 3], [0, 1]], [[0, 1], [0, 1]]],
            "gram_transcendental": [[[0, 1], [0, 1]], [[0, 1], [1, 1]]]}))
        out = tmp_path / "dual.json"
        res = run("dual", "--form-file", str(form_file), "--emit", str(out))
        assert res.exit_code == 0
        assert res.output.splitlines() == [
            "group: SL2xSL2", "mode: full", "weight lattice: span{(3,0)}",
            "multipliers: [3, inf]", "dropped coroots: 1", "dual rank: 1",
            "dual simple roots: [[1]]", "dual simple coroots: [[2]]",
            "dual type: A1 (adjoint)"]
        assert json.loads(out.read_text()) == {
            "rank": 1, "simple_roots": [[1]], "simple_coroots": [[2]],
            "name": "dual(SL2xSL2)", "weight_sublattice": [[3, 0]],
            "multipliers": [3, None], "dropped": [1]}


class TestCompare:
    def test_fl_agreement(self):
        res = run("compare", "fl", "twisted", "--group", "SL2", "--d", "1",
                  "--n", "3")
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "AGREE"
        assert "witness:" in res.output

    def test_lusztig_agreement(self):
        res = run("compare", "lusztig", "twisted", "--group", "Sp4", "--l", "4")
        assert res.exit_code == 0
        assert "AGREE" in res.output

    def test_half_forms_vs_langlands(self):
        res = run("compare", "langlands", "half-forms", "--group", "G2")
        assert res.exit_code == 0 and "AGREE" in res.output

    def test_disagreement_exit_code(self):
        # order-two twist on SL2 keeps the full weight lattice but doubles
        # the root, landing on the simply connected side instead
        res = run("compare", "langlands", "twisted", "--group", "SL2",
                  "--q-exp", "1/2")
        assert res.exit_code == 1
        assert "DISAGREE" in res.output

    def test_missing_params_usage_error(self):
        res = run("compare", "fl", "twisted", "--group", "SL2")
        assert res.exit_code == 2


class TestIncidence:
    def test_divisor_example(self):
        res = run("incidence", "--a", "0,4,-1", "--b", "2,2,-1")
        assert res.exit_code == 0
        assert res.output.strip() == "meet over {1,2}|{3}"

    def test_full_diagonal(self):
        res = run("incidence", "--a", "1,1,1", "--b", "0,4,-1")
        assert res.output.strip() == "meet over {1,2,3}"

    def test_disjoint(self):
        res = run("incidence", "--a", "1", "--b", "2")
        assert res.exit_code == 1
        assert "disjoint" in res.output

    def test_rank_two(self):
        res = run("incidence", "--rank", "2", "--a", "1,0;0,1", "--b", "0,1;1,0")
        assert res.exit_code == 0
        assert res.output.strip() == "meet over {1,2}"


class TestOtherVerbs:
    def test_rank1_table(self):
        res = run("rank1-table", "--r0", "12")
        assert res.exit_code == 0
        assert "PGL2 kernel: 6Z" in res.output
        assert "SL2 kernel:  6Z" in res.output

    def test_weights_table(self):
        res = run("weights", "--group", "SL2", "--hw", "2")
        assert res.exit_code == 0
        assert res.output.splitlines() == ["-2: 1", "0: 1", "2: 1"]

    def test_tensor(self):
        res = run("tensor", "--group", "SL2", "--a", "1", "--b", "1")
        assert res.exit_code == 0
        assert res.output.splitlines() == ["0: 1", "2: 1"]

    # the outputs of the extraction method, pinned; G2 in both orders
    @pytest.mark.parametrize("group,a,b,lines", [
        ("SL3", "1,0", "0,1", ["0,0: 1", "1,1: 1"]),
        ("G2", "1,0", "0,1", ["1,0: 1", "1,1: 1", "2,0: 1"]),
        ("G2", "0,1", "1,0", ["1,0: 1", "1,1: 1", "2,0: 1"]),
        ("G2", "1,1", "1,0", ["0,1: 1", "0,2: 1", "1,1: 1", "2,0: 1", "2,1: 1", "3,0: 1"]),
    ])
    def test_tensor_outputs(self, group, a, b, lines):
        res = run("tensor", "--group", group, "--a", a, "--b", b)
        assert res.exit_code == 0
        assert res.output.splitlines() == lines

    @pytest.mark.parametrize("a,b", [("1,0", "-1,0"), ("-1,0", "1,0")])
    def test_tensor_non_dominant(self, a, b):
        res = run("tensor", "--group", "SL3", "--a", a, "--b", b)
        assert res.exit_code == 1
        assert res.output.splitlines() == ["Error: (-1, 0) is not dominant"]

    def test_quantum_pair(self):
        res = run("quantum-pair", "--group", "SL2", "--n", "3")
        assert res.exit_code == 0
        assert "iso:" in res.output

    def test_verify_forms(self):
        res = run("verify-forms", "--group", "GL2", "--samples", "5")
        assert res.exit_code == 0
        assert "PASS" in res.output

    def test_killing(self):
        res = run("killing", "--group", "SL3", "--a-exp", "1/3")
        assert res.exit_code == 0
        assert "Q(coroot_0) = 0" in res.output

    def test_langlands(self):
        res = run("langlands", "--group", "GL2")
        assert res.exit_code == 0
        assert "multipliers: [1]" in res.output


class TestErrors:
    def test_unknown_flag_usage_error(self):
        res = run("dual", "--group", "SL2", "--does-not-exist", "1")
        assert res.exit_code == 2

    def test_unknown_group_label(self):
        res = run("validate", "--group", "E8")
        assert res.exit_code == 1

    @pytest.mark.parametrize("label", ["SL2xx", "xSL2", "SL2**PGL2"])
    def test_empty_factor_in_group_label(self, label):
        res = run("validate", "--group", label)
        assert res.exit_code == 1
        assert res.output == f"Error: empty factor in group label {label!r}\n"

    def test_killing_component_out_of_range(self):
        # the library's index check, reported as a domain error
        res = run("killing", "--group", "SL3", "--component", "5")
        assert res.exit_code == 1
        assert res.output == "Error: component index 5 is not in range(1)\n"

    def test_domain_error_exit_one(self):
        res = run("fl-dual", "--group", "SL2xSL2", "--d", "1", "--n", "2")
        assert res.exit_code == 1

    def test_both_group_and_file_rejected(self, tmp_path):
        f = tmp_path / "x.json"
        f.write_text("{}")
        res = run("validate", "--group", "SL2", "--rd-file", str(f))
        assert res.exit_code == 2

    def test_malformed_file(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        res = run("validate", "--rd-file", str(f))
        assert res.exit_code == 2

    def test_invalid_datum_domain_error(self, tmp_path):
        f = tmp_path / "bad_datum.json"
        f.write_text(json.dumps({
            "rank": 1, "simple_roots": [[1]], "simple_coroots": [[1]],
            "name": "broken"}))
        res = run("validate", "--rd-file", str(f))
        assert res.exit_code == 1

    def test_dependent_roots_domain_error(self, tmp_path):
        # affine A1 on one coweight: only the failure of the finite-type
        # test leads to the rank check that names the dependence
        f = tmp_path / "degenerate.json"
        f.write_text(json.dumps({
            "rank": 1, "simple_roots": [[2], [-2]], "simple_coroots": [[1], [-1]]}))
        res = run("validate", "--rd-file", str(f))
        assert res.exit_code == 1
        errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert errors == ["Error: simple roots are linearly dependent"]


class TestMalformedInput:
    """Malformed input exits 2 with one `Error:` line and no traceback."""

    @staticmethod
    def assert_usage_error(res):
        assert res.exit_code == 2
        assert isinstance(res.exception, (SystemExit, type(None)))
        errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1

    def test_quantum_pair_malformed_gram_json(self, tmp_path):
        f = tmp_path / "bad_gram.json"
        f.write_text('{"gram": [[1, 2]')
        self.assert_usage_error(run("quantum-pair", "--group", "SL2", "--gram-file", str(f)))

    def test_form_file_without_transcendental_gram(self, tmp_path):
        (tmp_path / "sl2.json").write_text(json.dumps({
            "rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]}))
        form = tmp_path / "form.json"
        form.write_text(json.dumps({"root_datum": "sl2.json",
                                    "gram_rational": [[[1, 3]]]}))
        res = run("dual", "--form-file", str(form))
        self.assert_usage_error(res)
        assert "gram_transcendental" in res.output

    @pytest.mark.parametrize("flag", ["--q-exp", "--q-tau"])
    def test_form_file_beside_a_q_exponent(self, tmp_path, flag):
        # the file's form Q = 2/3 would be used and the flag dropped
        (tmp_path / "sl2.json").write_text(json.dumps({
            "rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]}))
        form = tmp_path / "form.json"
        form.write_text(json.dumps({"root_datum": "sl2.json", "gram_rational": [[[2, 3]]],
                                    "gram_transcendental": [[[0, 1]]]}))
        res = run("dual", "--form-file", str(form), flag, "1/2")
        self.assert_usage_error(res)
        assert "--form-file" in res.output and flag in res.output

    @pytest.mark.parametrize("datum", [("--group", "PGL2"), ("--rd-file", "sl2.json")])
    def test_form_file_naming_a_datum_beside_a_datum(self, tmp_path, datum):
        # the file's SL2 would be dropped for the given datum, with no word
        (tmp_path / "sl2.json").write_text(json.dumps({
            "rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]}))
        form = tmp_path / "form.json"
        form.write_text(json.dumps({"root_datum": "sl2.json", "gram_rational": [[[2, 3]]],
                                    "gram_transcendental": [[[0, 1]]]}))
        flag, value = datum
        value = str(tmp_path / value) if flag == "--rd-file" else value
        res = run("dual", flag, value, "--form-file", str(form))
        self.assert_usage_error(res)
        assert "root_datum" in res.output

    def test_incidence_vector_length_must_match_rank(self):
        res = run("incidence", "--rank", "2", "--a", "1", "--b", "1")
        self.assert_usage_error(res)
        assert "--rank 2" in res.output

    @pytest.mark.parametrize("args, flag", [
        (("weights", "--group", "SL2", "--hw", "1,2"), "--hw 1,2"),
        (("weights", "--group", "SL3", "--hw", "1"), "--hw 1"),
        (("tensor", "--group", "SL2", "--a", "1,0", "--b", "1"), "--a 1,0"),
        (("tensor", "--group", "SL2", "--a", "1", "--b", "1,0"), "--b 1,0"),
    ])
    def test_weight_length_must_match_rank(self, args, flag):
        res = run(*args)
        self.assert_usage_error(res)
        assert flag in res.output and "rank" in res.output

    def test_form_file_holding_a_list(self, tmp_path):
        form = tmp_path / "form.json"
        form.write_text("[1, 2]")
        res = run("dual", "--form-file", str(form))
        self.assert_usage_error(res)
        assert "JSON object" in res.output

    def test_form_file_naming_a_datum_by_a_number(self, tmp_path):
        form = tmp_path / "form.json"
        form.write_text(json.dumps({"root_datum": 5, "gram_rational": [[[1, 1]]],
                                    "gram_transcendental": [[[0, 1]]]}))
        res = run("dual", "--form-file", str(form))
        self.assert_usage_error(res)
        assert "root_datum" in res.output

    def test_form_file_with_malformed_gram_entries(self, tmp_path):
        form = tmp_path / "form.json"
        form.write_text(json.dumps({"gram_rational": [[1]],
                                    "gram_transcendental": [[[0, 1]]]}))
        res = run("dual", "--group", "SL2", "--form-file", str(form))
        self.assert_usage_error(res)
        assert "[numerator, denominator]" in res.output

    def test_root_datum_file_holding_a_list(self, tmp_path):
        f = tmp_path / "rd.json"
        f.write_text("[[2], [1]]")
        res = run("validate", "--rd-file", str(f))
        self.assert_usage_error(res)
        assert "JSON object" in res.output

    def test_root_datum_file_with_a_fractional_entry(self, tmp_path):
        f = tmp_path / "rd.json"
        f.write_text(json.dumps({"rank": 1, "simple_roots": [[2.5]],
                                 "simple_coroots": [[1]]}))
        res = run("validate", "--rd-file", str(f))
        self.assert_usage_error(res)
        assert "2.5" in res.output

    @pytest.mark.parametrize("rank,roots,coroots,message", [
        (2, [[1, 2], [1]], [[1, 0], [0, 1]], "ragged rows"),
        (3, [[2, -1], [-1, 2]], [[1, 0], [0, 1]], "column count"),
        (-1, [], [], "column count >= 0"),
    ])
    def test_root_datum_file_of_the_wrong_shape(self, tmp_path, rank, roots, coroots,
                                                message):
        f = tmp_path / "rd.json"
        f.write_text(json.dumps({"rank": rank, "simple_roots": roots,
                                 "simple_coroots": coroots}))
        res = run("validate", "--rd-file", str(f))
        self.assert_usage_error(res)
        assert message in res.output

    def test_dual_emit_into_a_missing_directory(self, tmp_path):
        res = run("dual", "--group", "SL2", "--emit", str(tmp_path / "missing" / "x.json"))
        self.assert_usage_error(res)
        assert "--emit" in res.output

    def test_verify_forms_on_rank_zero(self):
        res = run("verify-forms", "--group", "torus0")
        self.assert_usage_error(res)
        assert "rank" in res.output

    def test_root_datum_file_with_a_boolean_rank(self, tmp_path):
        f = tmp_path / "rd.json"
        f.write_text(json.dumps({"rank": True, "simple_roots": [[2]],
                                 "simple_coroots": [[1]]}))
        res = run("validate", "--rd-file", str(f))
        self.assert_usage_error(res)
        assert "True" in res.output

    def test_root_datum_file_with_a_boolean_entry(self, tmp_path):
        f = tmp_path / "rd.json"
        f.write_text(json.dumps({"rank": 1, "simple_roots": [[True]],
                                 "simple_coroots": [[1]]}))
        res = run("validate", "--rd-file", str(f))
        self.assert_usage_error(res)
        assert "True" in res.output

    def test_form_file_with_a_boolean_numerator(self, tmp_path):
        form = tmp_path / "form.json"
        form.write_text(json.dumps({"gram_rational": [[[True, 3]]],
                                    "gram_transcendental": [[[0, 1]]]}))
        res = run("dual", "--group", "SL2", "--form-file", str(form))
        self.assert_usage_error(res)
        assert "boolean" in res.output

    def test_gram_file_with_a_boolean_numerator(self, tmp_path):
        f = tmp_path / "gram.json"
        f.write_text(json.dumps({"gram": [[[True, 1]]]}))
        res = run("quantum-pair", "--group", "SL2", "--gram-file", str(f))
        self.assert_usage_error(res)
        assert "boolean" in res.output

    @pytest.mark.parametrize("args, flag", [
        (("fl-dual", "--group", "SL2", "--d", "0", "--n", "2"), "--d"),
        (("fl-dual", "--group", "SL2", "--d", "1", "--n", "-2"), "--n"),
        (("lusztig-dual", "--group", "SL2", "--l", "0"), "--l"),
        (("compare", "fl", "twisted", "--group", "SL2", "--d", "0", "--n", "2"), "--d"),
        (("compare", "lusztig", "twisted", "--group", "SL2", "--l", "-3"), "--l"),
        (("rank1-table", "--r0", "0"), "--r0"),
        (("quantum-pair", "--group", "SL2", "--n", "0"), "--n"),
        (("lusztig-dual", "--group", "SL3", "--l", "3", "--f", "1"), "--f"),
        (("lusztig-dual", "--group", "SL3", "--l", "3", "--f", "0,0"), "--f"),
    ])
    def test_orders_levels_and_symmetrizers_must_be_positive(self, args, flag):
        res = run(*args)
        self.assert_usage_error(res)
        assert flag in res.output

    @pytest.mark.parametrize("option,value", [("--coord-bound", "-1"), ("--samples", "-3")])
    def test_verify_forms_negative_counts(self, option, value):
        res = run("verify-forms", "--group", "SL2", option, value)
        self.assert_usage_error(res)
        assert option in res.output
