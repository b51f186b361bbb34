import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stc import imageio


def test_quantize01_snaps_to_grid():
    v = np.array([0.0, 0.5, 1.0, 0.123456])
    q = imageio.quantize01(v)
    assert np.array_equal(q * 255, np.round(q * 255))
    assert np.array_equal(imageio.quantize01(q), q)


def test_ppm_round_trip_is_lossless_on_grid_values(tmp_path):
    rng = np.random.default_rng(0)
    img = imageio.quantize01(rng.uniform(size=(5, 7, 3)))
    path = tmp_path / "img.ppm"
    imageio.write_ppm(path, img)
    assert np.array_equal(imageio.read_ppm(path), img)


def test_pgm_round_trip_exact_up_to_255(tmp_path):
    mask = np.arange(256, dtype=np.int64).reshape(16, 16)
    path = tmp_path / "mask.pgm"
    imageio.write_pgm(path, mask)
    assert np.array_equal(imageio.read_pgm(path), mask)


def test_pgm_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError, match="0..255"):
        imageio.write_pgm(tmp_path / "bad.pgm", np.array([[300]]))


def test_saliency_round_trip(tmp_path):
    sal = imageio.quantize01(np.linspace(0, 1, 20).reshape(4, 5))
    path = tmp_path / "sal.pgm"
    imageio.write_saliency_pgm(path, sal)
    assert np.array_equal(imageio.read_saliency_pgm(path), sal)


def test_truncated_file_error_names_path(tmp_path):
    path = tmp_path / "img.ppm"
    imageio.write_ppm(path, np.zeros((4, 4, 3)))
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ValueError, match="img.ppm.*truncated"):
        imageio.read_ppm(path)


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(ValueError, match="P6"):
        imageio.read_ppm(path)


def test_comment_in_header_is_skipped(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# comment line\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    assert np.array_equal(imageio.read_pgm(path), [[1, 2], [3, 4]])


def _ppm_with_header(path, image_size, header_size, extra=b""):
    imageio.write_ppm(path, np.zeros((*image_size, 3)))
    raw = path.read_bytes().replace(b"%d %d" % image_size[::-1], b"%d %d" % header_size[::-1], 1)
    path.write_bytes(raw + extra)


@pytest.mark.parametrize(
    "image_size, header_size, extra",
    [((4, 4), (4, 4), bytes(700)), ((64, 64), (32, 64), b"")],
    ids=["4x4-and-700-bytes-of-garbage", "64x64-whose-header-says-64-32"],
)
def test_bytes_after_the_pixel_data_rejected_naming_file_and_both_counts(
    tmp_path, image_size, header_size, extra
):
    path = tmp_path / "img.ppm"
    _ppm_with_header(path, image_size, header_size, extra)
    stored = 3 * image_size[0] * image_size[1] + len(extra)
    need = 3 * header_size[0] * header_size[1]
    with pytest.raises(ValueError) as err:
        imageio.read_ppm_bytes(path)
    assert str(err.value).startswith(f"{path}: "), err.value
    assert f"{stored} bytes" in str(err.value) and str(need) in str(err.value), err.value


@pytest.mark.parametrize(
    "header, field, token",
    [
        (b"P6\nabc 64\n255\n", "width", "abc"),
        (b"P6\n64 +4\n255\n", "height", "+4"),
        (b"P6\n64 64\n2_55\n", "maxval", "2_55"),
        (b"P5\n-4 64\n255\n", "width", "-4"),
        (b"P5\n4 0\n255\n", "height", "0"),
        (b"P5\n4 1234567890\n255\n", "height", "1234567890"),
    ],
)
def test_header_field_that_is_not_a_positive_integer_names_file_and_field(
    tmp_path, header, field, token
):
    path = tmp_path / ("img.ppm" if header.startswith(b"P6") else "img.pgm")
    path.write_bytes(header + bytes(64 * 64 * 3))
    read = imageio.read_ppm_bytes if header.startswith(b"P6") else imageio.read_pgm
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value).startswith(f"{path}: header field {field} ")
    assert repr(token) in str(err.value)


# a mutation of a valid file: ("truncate", at), ("flip", at, xor mask),
# ("token", which of width/height/maxval, replacement bytes) or ("splice",
# at, at in the other file, the other file's magic): the head of this file
# joined to the tail of another valid one
MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 200)),
    st.tuples(
        st.just("splice"), st.integers(0, 60), st.integers(0, 60), st.sampled_from([b"P6", b"P5"])
    ),
    st.tuples(st.just("flip"), st.integers(0, 200), st.integers(1, 255)),
    st.tuples(
        st.just("token"),
        st.integers(0, 2),
        st.sampled_from([b"abc", b"-4", b"0", b"+4", b"1_0", b"4.0", b"9" * 12, b"", b"#"])
        | st.binary(max_size=8),
    ),
)


def _mutated_pnm(magic: bytes, mutation) -> bytes:
    tokens = [b"5", b"3", b"255"]
    if mutation[0] == "token":
        tokens[mutation[1]] = mutation[2]
    pixels = bytes(range(5 * 3 * (3 if magic == b"P6" else 1)))
    raw = bytearray(magic + b"\n" + tokens[0] + b" " + tokens[1] + b"\n" + tokens[2] + b"\n")
    raw += pixels
    if mutation[0] == "truncate":
        del raw[mutation[1]:]
    elif mutation[0] == "flip" and mutation[1] < len(raw):
        raw[mutation[1]] ^= mutation[2]
    elif mutation[0] == "splice":
        raw[mutation[1]:] = _mutated_pnm(mutation[3], ("none",))[mutation[2]:]
    return bytes(raw)


@settings(max_examples=300)
@given(magic=st.sampled_from([b"P6", b"P5"]), mutation=MUTATIONS)
def test_mutated_pnm_reads_as_an_image_or_raises_naming_the_file(
    tmp_path_factory, magic, mutation
):
    path = tmp_path_factory.getbasetemp() / "fuzz.pnm"
    path.write_bytes(_mutated_pnm(magic, mutation))
    read = imageio.read_ppm_bytes if magic == b"P6" else imageio.read_pgm
    try:
        image = read(path)
    except ValueError as e:
        assert str(e).startswith(f"{path}: "), e
        return
    assert image.dtype == np.uint8 and min(image.shape[:2]) >= 1
    assert image.shape[2:] == ((3,) if magic == b"P6" else ())
