import numpy as np
import pytest

from mtlmolnet import features as feat
from mtlmolnet import smiles


def graph(smi):
    return smiles.featurize(smiles.parse_smiles(smi))


def block(phys=None, qc=None, mask=None):
    return feat.FeatureBlock(
        phys=np.zeros(200) if phys is None else np.asarray(phys, dtype=float),
        qc=np.zeros(4) if qc is None else np.asarray(qc, dtype=float),
        qc_mask=np.zeros(4) if mask is None else np.asarray(mask, dtype=float),
    )


class TestPhysDescriptors:
    def test_methane_weight(self):
        d = feat.compute_phys_descriptors(graph("C"))
        assert d[0] == pytest.approx(12.011 + 4 * 1.008, abs=1e-9)

    def test_butane_rotatable(self):
        d = feat.compute_phys_descriptors(graph("CCCC"))
        assert d[feat.BUILTIN_DESCRIPTOR_NAMES.index("rotatable_bonds")] == 1.0

    def test_ethanol_donors_acceptors(self):
        d = feat.compute_phys_descriptors(graph("CCO"))
        assert d[feat.BUILTIN_DESCRIPTOR_NAMES.index("hbond_donors")] == 1.0
        assert d[feat.BUILTIN_DESCRIPTOR_NAMES.index("hbond_acceptors")] == 1.0

    def test_benzene_counts(self):
        d = feat.compute_phys_descriptors(graph("c1ccccc1"))
        names = feat.BUILTIN_DESCRIPTOR_NAMES
        assert d[names.index("aromatic_atoms")] == 6.0
        assert d[names.index("ring_bonds")] == 6.0
        assert d[names.index("fraction_aromatic")] == 1.0
        assert d[names.index("rotatable_bonds")] == 0.0

    def test_fragments_component_count(self):
        d = feat.compute_phys_descriptors(graph("CCO.CC"))
        assert d[feat.BUILTIN_DESCRIPTOR_NAMES.index("components")] == 2.0

    def test_logp_surrogate(self):
        d = feat.compute_phys_descriptors(graph("CCO"))
        assert d[-1] == pytest.approx(0.2 * 2 - 0.4 * 1)

    @pytest.mark.parametrize("smi,expected", [
        ("CCN", 1.0), ("c1ccncc1", 1.0), ("C[NH3+]", 1.0), ("CCO", 0.0),
    ])
    def test_nitrogen_count(self, smi, expected):
        d = feat.compute_phys_descriptors(graph(smi))
        assert d[feat.BUILTIN_DESCRIPTOR_NAMES.index("nitrogens")] == expected

    @pytest.mark.parametrize("smi,oxygens", [
        ("OCCO", 2.0), ("CCOC", 1.0), ("CC(=O)Nc1ccc(O)cc1", 2.0),
    ])
    def test_acceptors_minus_nitrogens_counts_oxygens(self, smi, oxygens):
        d = feat.compute_phys_descriptors(graph(smi))
        names = feat.BUILTIN_DESCRIPTOR_NAMES
        assert d[names.index("hbond_acceptors")] - d[names.index("nitrogens")] == oxygens

    def test_deterministic(self):
        a = feat.compute_phys_descriptors(graph("CC(=O)Nc1ccc(O)cc1"))
        b = feat.compute_phys_descriptors(graph("CC(=O)Nc1ccc(O)cc1"))
        np.testing.assert_array_equal(a, b)

    def test_builtin_block_padding(self):
        vec = feat.builtin_phys_block(graph("CCO"))
        assert vec.shape == (200,)
        assert np.all(vec[16:] == 0.0)


class TestQcLoading:
    def test_full_row(self, tmp_path):
        p = tmp_path / "qc.csv"
        p.write_text("smiles,qc_dipole,qc_gap,qc_nelec,qc_energy\n"
                     "CCO,1.23,7.1,26,-154.9\n")
        qc, mask = feat.load_qc_descriptors(p, ["CCO"])
        np.testing.assert_array_equal(qc[0], [1.23, 7.1, 26.0, -154.9])
        np.testing.assert_array_equal(mask[0], [1, 1, 1, 1])

    def test_absent_molecule_masked(self, tmp_path):
        p = tmp_path / "qc.csv"
        p.write_text("smiles,qc_dipole,qc_gap,qc_nelec,qc_energy\n"
                     "CCO,1.0,2.0,3.0,4.0\n")
        qc, mask = feat.load_qc_descriptors(p, ["CCO", "CCN"])
        np.testing.assert_array_equal(qc[1], [0, 0, 0, 0])
        np.testing.assert_array_equal(mask[1], [0, 0, 0, 0])

    def test_empty_cell_masked(self, tmp_path):
        p = tmp_path / "qc.csv"
        p.write_text("smiles,qc_dipole,qc_gap,qc_nelec,qc_energy\n"
                     "CCO,1.0,,3.0,4.0\n")
        qc, mask = feat.load_qc_descriptors(p, ["CCO"])
        np.testing.assert_array_equal(mask[0], [1, 0, 1, 1])
        assert qc[0, 1] == 0.0

    def test_scientific_notation(self, tmp_path):
        p = tmp_path / "qc.csv"
        p.write_text("smiles,qc_dipole,qc_gap,qc_nelec,qc_energy\n"
                     "CCO,1.5e-3,2E2,3.0,-1.2e+1\n")
        qc, _ = feat.load_qc_descriptors(p, ["CCO"])
        np.testing.assert_array_equal(qc[0], [1.5e-3, 200.0, 3.0, -12.0])

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "qc.csv"
        p.write_text("smiles,qc_dipole,qc_gap,qc_nelec,qc_energy\n"
                     "CCO,1.0,2.0,3.0,4.0\n"
                     "CCN,nope,2.0,3.0,4.0\n")
        with pytest.raises(feat.MalformedRow, match=":3:"):
            feat.load_qc_descriptors(p, ["CCO"])

    def test_blank_lines_are_skipped(self, tmp_path):
        header = "smiles,qc_dipole,qc_gap,qc_nelec,qc_energy\n"
        rows = ["CCO,1.0,2.0,3.0,4.0\n", "CCN,5.0,,7.0,8.0\n"]
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        plain.write_text(header + "".join(rows))
        blank.write_text(header + "\n" + rows[0] + "\n\n" + rows[1] + "\n")
        mols = ["CCN", "CCO", "CC"]
        for want, got in zip(feat.load_qc_descriptors(plain, mols),
                             feat.load_qc_descriptors(blank, mols)):
            np.testing.assert_array_equal(got, want)

    def test_malformed_row_after_blank_line_names_its_line(self, tmp_path):
        p = tmp_path / "qc.csv"
        p.write_text("smiles,qc_dipole,qc_gap,qc_nelec,qc_energy\n"
                     "CCO,1.0,2.0,3.0,4.0\n"
                     "\n"
                     "CCN,1.0,2.0\n")
        with pytest.raises(feat.MalformedRow,
                           match=":4: expected 5 fields as in the header, got 3"):
            feat.load_qc_descriptors(p, ["CCO"])

    def test_duplicate_warns_first_wins(self, tmp_path):
        p = tmp_path / "qc.csv"
        p.write_text("smiles,qc_dipole,qc_gap,qc_nelec,qc_energy\n"
                     "CCO,1.0,2.0,3.0,4.0\n"
                     "CCO,9.0,9.0,9.0,9.0\n")
        with pytest.warns(feat.DuplicateSmiles):
            qc, _ = feat.load_qc_descriptors(p, ["CCO"])
        assert qc[0, 0] == 1.0

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN "])
    def test_non_finite_cell_names_line_and_cell(self, tmp_path, cell):
        p = tmp_path / "qc.csv"
        p.write_text("smiles,qc_dipole,qc_gap,qc_nelec,qc_energy\n"
                     "CCO,1.0,2.0,3.0,4.0\n"
                     f"CCN,1.0,,{cell},4.0\n")
        with pytest.raises(feat.MalformedRow,
                           match=f"qc.csv:3: non-finite value '{cell.strip()}'$"):
            feat.load_qc_descriptors(p, ["CCO"])

    def test_bad_header(self, tmp_path):
        p = tmp_path / "qc.csv"
        p.write_text("smiles,dipole,gap,nelec,energy\nCCO,1,2,3,4\n")
        with pytest.raises(feat.MalformedRow):
            feat.load_qc_descriptors(p, ["CCO"])


class TestExternalPhys:
    def _write(self, path, rows):
        header = "smiles," + ",".join(f"d{i}" for i in range(200))
        path.write_text("\n".join([header] + rows) + "\n")

    def test_round_trip_bit_exact(self, tmp_path):
        p = tmp_path / "phys.csv"
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(3, 200))
        feat.write_external_phys(p, ["CCO", "CCN", "CC"], mat)
        back = feat.load_external_phys(p, ["CCO", "CCN", "CC"])
        np.testing.assert_array_equal(back, mat)

    def test_zeros(self, tmp_path):
        p = tmp_path / "phys.csv"
        self._write(p, ["CCO," + ",".join(["0"] * 200)])
        out = feat.load_external_phys(p, ["CCO"])
        np.testing.assert_array_equal(out, np.zeros((1, 200)))

    def test_missing_molecule_is_hard_error(self, tmp_path):
        p = tmp_path / "phys.csv"
        self._write(p, ["CCO," + ",".join(["0"] * 200)])
        with pytest.raises(feat.MissingMolecule):
            feat.load_external_phys(p, ["CCO", "CCN"])

    def test_blank_lines_are_skipped(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = ["CCO," + ",".join(map(repr, rng.normal(size=200).tolist())),
                "CCN," + ",".join(map(repr, rng.normal(size=200).tolist()))]
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        self._write(plain, rows)
        self._write(blank, ["", rows[0], "", rows[1], ""])
        np.testing.assert_array_equal(feat.load_external_phys(blank, ["CCN", "CCO"]),
                                      feat.load_external_phys(plain, ["CCN", "CCO"]))

    def test_bad_row_after_blank_line_names_its_line(self, tmp_path):
        p = tmp_path / "phys.csv"
        self._write(p, ["CCO," + ",".join(["0"] * 200), "", "",
                        "CCN," + ",".join(["x"] * 200)])
        with pytest.raises(feat.MalformedRow, match=":5: bad number 'x'$"):
            feat.load_external_phys(p, ["CCO"])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_line_and_cell(self, tmp_path, cell):
        p = tmp_path / "phys.csv"
        self._write(p, ["CCO," + ",".join(["0"] * 200),
                        "CCN," + ",".join(["1"] * 150 + [cell] + ["2"] * 49)])
        with pytest.raises(feat.MalformedRow,
                           match=f"phys.csv:3: non-finite value '{cell}'$"):
            feat.load_external_phys(p, ["CCO"])

    def test_duplicate_warns_first_wins(self, tmp_path):
        p = tmp_path / "phys.csv"
        self._write(p, ["CCO," + ",".join(["1"] * 200), "CCO," + ",".join(["9"] * 200)])
        with pytest.warns(feat.DuplicateSmiles, match="phys.csv:3: duplicate"):
            out = feat.load_external_phys(p, ["CCO"])
        np.testing.assert_array_equal(out, np.ones((1, 200)))

    @pytest.mark.parametrize("cell, message", [("nan", "non-finite value 'nan'$"),
                                               ("x", "bad number 'x'$")])
    def test_malformed_duplicate_refused(self, tmp_path, cell, message):
        # a duplicate is validated before it is skipped, as in the qc loader
        p = tmp_path / "phys.csv"
        self._write(p, ["CCO," + ",".join(["0"] * 200), "CCO," + ",".join([cell] * 200)])
        with pytest.raises(feat.MalformedRow, match=f"phys.csv:3: {message}"):
            feat.load_external_phys(p, ["CCO"])

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "phys.csv"
        header = "smiles," + ",".join(f"d{i}" for i in range(199))
        p.write_text(header + "\nCCO," + ",".join(["0"] * 199) + "\n")
        with pytest.raises(feat.WrongColumnCount):
            feat.load_external_phys(p, ["CCO"])


class TestStandardize:
    def test_two_point_column(self):
        blocks = [block(phys=[0.0] + [0.0] * 199), block(phys=[2.0] + [0.0] * 199)]
        stats = feat.fit_stats(blocks)
        out = feat.standardize(blocks, stats)
        assert out[0].phys[0] == -1.0
        assert out[1].phys[0] == 1.0

    def test_constant_column_untouched(self):
        blocks = [block(phys=[5.0] + [0.0] * 199)] * 3
        out = feat.standardize(blocks, feat.fit_stats(blocks))
        assert out[0].phys[0] == 5.0

    def test_masked_qc_excluded_and_stays_zero(self):
        blocks = [
            block(qc=[1.0, 0, 0, 0], mask=[1, 0, 0, 0]),
            block(qc=[3.0, 0, 0, 0], mask=[1, 0, 0, 0]),
            block(qc=[0.0, 0, 0, 0], mask=[0, 0, 0, 0]),
        ]
        stats = feat.fit_stats(blocks)
        assert stats.qc_mean[0] == 2.0
        out = feat.standardize(blocks, stats)
        assert out[0].qc[0] == -1.0
        assert out[2].qc[0] == 0.0  # masked entry stays zero
        np.testing.assert_array_equal(out[0].qc_mask, [1, 0, 0, 0])

    def test_all_masked_dimension(self):
        blocks = [block(qc=[0, 7.0, 0, 0], mask=[0, 0, 0, 0])] * 2
        stats = feat.fit_stats(blocks)
        assert stats.qc_mean[1] == 0.0 and stats.qc_std[1] == 1.0
        out = feat.standardize(blocks, stats)
        assert out[0].qc[1] == 0.0

    def test_idempotent_on_training_split(self):
        rng = np.random.default_rng(0)
        blocks = [block(phys=rng.normal(size=200),
                        qc=rng.normal(size=4), mask=[1, 1, 0, 1])
                  for _ in range(10)]
        once = feat.standardize(blocks, feat.fit_stats(blocks))
        twice = feat.standardize(once, feat.fit_stats(once))
        for a, b in zip(once, twice):
            np.testing.assert_allclose(a.phys, b.phys, atol=1e-12)
            np.testing.assert_allclose(a.qc, b.qc, atol=1e-12)


class TestFuse:
    def test_layout_508(self):
        z = np.zeros(300)
        b = block(phys=np.arange(200.0), qc=[1, 2, 3, 4], mask=[1, 1, 1, 0])
        x = feat.fuse(z, b, use_qc=True)
        assert x.shape == (508,)
        np.testing.assert_array_equal(x[300:500], np.arange(200.0))
        np.testing.assert_array_equal(x[500:504], [1, 2, 3, 4])
        np.testing.assert_array_equal(x[504:508], [1, 1, 1, 0])

    def test_all_zero(self):
        x = feat.fuse(np.zeros(300), block(), use_qc=True)
        assert x.shape == (508,)
        assert np.all(x == 0.0)

    def test_qc_ablated_length(self):
        x = feat.fuse(np.zeros(300), block(), use_qc=False)
        assert x.shape == (500,)

    def test_mask_discipline(self):
        # masked slots carry zero in the fused vector no matter the file value
        b = block(qc=[9.0, 9.0, 9.0, 9.0], mask=[0, 1, 0, 1])
        stats = feat.fit_stats([b])
        x = feat.fuse(np.zeros(8), feat.standardize([b], stats)[0], use_qc=True)
        assert x[8 + 200 + 0] == 0.0
        assert x[8 + 200 + 2] == 0.0

    def test_feature_matrix_matches_fuse(self):
        rng = np.random.default_rng(1)
        blocks = [block(phys=rng.normal(size=200), qc=rng.normal(size=4),
                        mask=[1, 0, 1, 1]) for _ in range(3)]
        mat = feat.feature_matrix(blocks, use_qc=True)
        for i, b in enumerate(blocks):
            np.testing.assert_array_equal(
                mat[i], feat.fuse(np.zeros(0), b, use_qc=True))
