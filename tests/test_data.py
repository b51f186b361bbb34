import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import JSON_MUTATIONS, mutated_json_object
from stc import data


class TestGenSimple:
    def test_deterministic(self):
        a = data.gen_simple(2, 42)
        b = data.gen_simple(2, 42)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_label_set_is_the_class(self):
        for c in range(1, 5):
            _, mask, labels = data.gen_simple(c, 7)
            assert labels == frozenset({c})
            assert set(np.unique(mask)) == {0, c}

    def test_class_out_of_range(self):
        with pytest.raises(ValueError, match="class id"):
            data.gen_simple(0, 1)
        with pytest.raises(ValueError, match="class id"):
            data.gen_simple(5, 1)

    def test_pixels_in_unit_range_on_8bit_grid(self):
        img, _, _ = data.gen_simple(1, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert np.array_equal(img * 255, np.round(img * 255))

    def test_foreground_fraction_bounds_over_1000_samples(self):
        fracs = []
        for i in range(1000):
            _, mask, _ = data.gen_simple(1 + i % 4, np.random.SeedSequence([99, i]))
            fracs.append((mask > 0).mean())
        assert min(fracs) >= 0.05
        assert max(fracs) <= 0.45


class TestGenComplex:
    def test_deterministic(self):
        a = data.gen_complex([1, 3], 42)
        b = data.gen_complex([1, 3], 42)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_nonzero_labels_match_classes(self):
        for seed in range(30):
            classes = [1 + seed % 4, 1 + (seed + 1) % 4]
            _, mask, labels = data.gen_complex(classes, seed)
            assert set(np.unique(mask)) - {0} == set(classes)
            assert labels == frozenset(classes)

    def test_cardinality_enforced(self):
        with pytest.raises(ValueError, match="2..3"):
            data.gen_complex([1], 0)
        with pytest.raises(ValueError, match="2..3"):
            data.gen_complex([1, 2, 3, 4], 0)
        with pytest.raises(ValueError, match="2..3"):
            data.gen_complex([2, 2], 0)

    def test_ordered_pair_coverage_over_500_samples(self):
        seen = set()
        for i in range(500):
            rng = np.random.default_rng(np.random.SeedSequence([5, i]))
            classes = data.sample_complex_classes(rng, 4)
            for a_idx in range(len(classes)):
                for b_idx in range(a_idx + 1, len(classes)):
                    seen.add((classes[a_idx], classes[b_idx]))
        assert seen == {(a, b) for a in range(1, 5) for b in range(1, 5) if a != b}


class TestDatasetRoundTrip:
    def test_write_then_read_matches(self, tmp_path):
        examples = list(data.build_dataset(6, 3, 2, seed=1))
        data.write_dataset(examples, tmp_path)
        manifest = data.read_dataset(tmp_path)
        assert len(manifest) == 11
        by_name = {ex.name: ex for ex in examples}
        for rec in manifest.records:
            ex = by_name[rec.image.split("/")[-1].removesuffix(".ppm")]
            assert rec.split == ex.split
            assert rec.labels == ex.labels
            assert np.array_equal(manifest.load_image(rec), ex.image)
            raw = manifest.load_image_bytes(rec)
            assert raw.dtype == np.uint8 and raw.shape == ex.image.shape
            assert np.array_equal(raw / 255.0, manifest.load_image(rec))
            assert np.array_equal(manifest.load_gt_mask(rec), ex.gt_mask)

    def test_split_filter(self, tmp_path):
        data.write_dataset(data.build_dataset(4, 2, 2, seed=0), tmp_path)
        manifest = data.read_dataset(tmp_path)
        assert len(manifest.split("simple")) == 4
        assert len(manifest.split("complex")) == 2
        assert len(manifest.split("eval")) == 2

    def test_same_seed_same_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        data.write_dataset(data.build_dataset(3, 2, 1, seed=9), d1)
        data.write_dataset(data.build_dataset(3, 2, 1, seed=9), d2)
        files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes()

    def test_truncated_image_error_names_record(self, tmp_path):
        data.write_dataset(data.build_dataset(2, 0, 0, seed=0), tmp_path)
        manifest = data.read_dataset(tmp_path)
        victim = tmp_path / manifest.records[0].image
        victim.write_bytes(victim.read_bytes()[:-20])
        with pytest.raises(ValueError, match="simple_0000.*truncated"):
            manifest.load_image(manifest.records[0])

    def test_missing_file_detected_at_read(self, tmp_path):
        data.write_dataset(data.build_dataset(2, 0, 0, seed=0), tmp_path)
        (tmp_path / "images" / "simple_0001.ppm").unlink()
        with pytest.raises(ValueError, match="missing file"):
            data.read_dataset(tmp_path)

    def test_simple_record_with_two_labels_rejected(self, tmp_path):
        data.write_dataset(data.build_dataset(1, 0, 0, seed=0), tmp_path)
        manifest_path = tmp_path / "manifest.jsonl"
        line = manifest_path.read_text().replace('"labels":[1]', '"labels":[1,2]')
        manifest_path.write_text(line)
        with pytest.raises(ValueError, match="exactly one label"):
            data.read_dataset(tmp_path)

    @pytest.mark.parametrize("line, labels", [(0, [300]), (1, [2, 256])])
    def test_label_id_above_255_rejected_naming_its_line(self, tmp_path, line, labels):
        # ground-truth masks and pseudo-masks store class ids as PGM bytes
        data.write_dataset(data.build_dataset(1, 1, 0, seed=0), tmp_path)
        manifest_path = tmp_path / "manifest.jsonl"
        lines = manifest_path.read_text().splitlines()
        entry = json.loads(lines[line])
        entry["labels"] = labels
        lines[line] = json.dumps(entry)
        manifest_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            data.read_dataset(tmp_path)
        want = f"{manifest_path}:{line + 1}: labels must be class ids in 1..255, got {labels}"
        assert str(err.value) == want

    @pytest.mark.parametrize(
        "field, value",
        [
            ("image", "{outside}/outside.ppm"),
            ("image", "../outside.ppm"),
            ("gt_mask", "masks/../../outside.pgm"),
            ("saliency", "{outside}/outside.pgm"),
            ("image", 5),
        ],
    )
    def test_path_outside_the_dataset_root_rejected(self, tmp_path, field, value):
        root = tmp_path / "data"
        data.write_dataset(data.build_dataset(1, 0, 1, seed=0), root)
        (tmp_path / "outside.ppm").write_bytes((root / "images/simple_0000.ppm").read_bytes())
        (tmp_path / "outside.pgm").write_bytes((root / "masks/eval_0000.pgm").read_bytes())
        manifest_path = root / "manifest.jsonl"
        lines = manifest_path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry[field] = value.format(outside=tmp_path) if isinstance(value, str) else value
        lines[1] = json.dumps(entry)
        manifest_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"manifest\.jsonl:2: .*{field}"):
            data.read_dataset(root)

    def test_second_image_with_a_taken_stem_rejected_naming_its_line_and_both_paths(
        self, tmp_path
    ):
        # pseudo-masks and saliency maps are named by the image's stem
        data.write_dataset(data.build_dataset(2, 0, 0, seed=0), tmp_path)
        (tmp_path / "other").mkdir()
        (tmp_path / "other/simple_0000.ppm").write_bytes(
            (tmp_path / "images/simple_0000.ppm").read_bytes()
        )
        manifest_path = tmp_path / "manifest.jsonl"
        lines = manifest_path.read_text().splitlines()
        lines.append(lines[0].replace("images/", "other/"))
        manifest_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            data.read_dataset(tmp_path)
        want = "image: 'other/simple_0000.ppm' has the stem of 'images/simple_0000.ppm'"
        assert str(err.value).startswith(f"{manifest_path}:3: {want}"), err.value

    def test_eval_record_without_gt_rejected(self, tmp_path):
        data.write_dataset(data.build_dataset(1, 0, 1, seed=0), tmp_path)
        manifest_path = tmp_path / "manifest.jsonl"
        lines = manifest_path.read_text().splitlines()
        lines[1] = lines[1].replace(',"gt_mask":"masks/eval_0000.pgm"', "")
        manifest_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="gt mask"):
            data.read_dataset(tmp_path)


def test_build_dataset_validates_class_count():
    with pytest.raises(ValueError, match="at least 2"):
        data.build_dataset(2, 2, 0, num_classes=1)


def test_build_dataset_generates_examples_as_they_are_read():
    examples = data.build_dataset(3, 1, 1, seed=0)
    assert iter(examples) is examples  # an iterator, not a list of the corpus
    assert [ex.name for ex in examples] == [
        "simple_0000", "simple_0001", "simple_0002", "complex_0000", "eval_0000",
    ]


def test_write_dataset_writes_each_example_as_it_comes(tmp_path):
    names = []

    def examples():
        for ex in data.build_dataset(3, 1, 1, seed=0):
            yield ex
            # written before the next example is generated
            assert (tmp_path / "images" / f"{ex.name}.ppm").is_file()
            names.append(ex.name)

    records = data.write_dataset(examples(), tmp_path)
    assert [r.image for r in records] == [f"images/{n}.ppm" for n in names]
    assert records == data.read_dataset(tmp_path).records


def test_write_dataset_that_fails_removes_what_it_wrote(tmp_path):
    def examples():
        yield from data.build_dataset(2, 1, 1, seed=0)
        raise ValueError("generation failed")

    (tmp_path / "keep").mkdir()
    (tmp_path / "keep" / "notes.txt").write_text("")
    for out in (tmp_path / "a" / "b" / "new", tmp_path / "keep"):
        with pytest.raises(ValueError, match="generation failed"):
            data.write_dataset(examples(), out)
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "keep", "keep/notes.txt"
    ]


def test_manifest_line_nested_too_deep_rejected_naming_file_and_line(tmp_path):
    data.write_dataset(data.build_dataset(2, 0, 0, seed=3), tmp_path)
    path = tmp_path / "manifest.jsonl"
    path.write_bytes(path.read_bytes() + b"[" * 100_000 + b"\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: bad JSON")):
        data.read_dataset(tmp_path)


@pytest.fixture(scope="module")
def manifest_lines(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data.write_dataset(data.build_dataset(2, 1, 1, seed=3), root)
    return root, (root / "manifest.jsonl").read_bytes().splitlines()


@settings(max_examples=300)
@given(line=st.integers(0, 3), mutation=JSON_MUTATIONS)
def test_mutated_manifest_line_loads_or_raises_naming_the_file(manifest_lines, line, mutation):
    root, lines = manifest_lines
    fields = {k: json.dumps(v).encode() for k, v in json.loads(lines[line]).items()}
    other = lines[(line + 1) % len(lines)]
    mutated = [*lines[:line], mutated_json_object(fields, other, mutation), *lines[line + 1:]]
    path = root / "manifest.jsonl"
    path.write_bytes(b"\n".join(mutated) + b"\n")
    try:
        manifest = data.read_dataset(root)
    except ValueError as e:
        assert str(e).startswith(f"{path}:"), e
        return
    for rec in manifest.records:
        assert rec.split in data.SPLITS and (root / rec.image).is_file()
        assert all(type(c) is int and 1 <= c <= 255 for c in rec.labels), rec
