"""Property tests: damaged GMGC checkpoint bytes parse or raise FormatError.

Every truncated prefix and every single-byte change of a valid
checkpoint must either load or raise FormatError, never another
exception.  Changes confined to the config block get a test of their
own, since few changes drawn over the whole file land there.  Example
counts are bounded so the suite stays quick; the search is
derandomized so a run is repeatable.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anomix import networks as nets
from anomix.errors import FormatError
from anomix.features import NormStats
from anomix.mixture import GmmParams

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

TINY = nets.ArchConfig(
    input_dim=6, latent_dim=2, n_components=2,
    encoder_widths=(3,), discriminator_widths=(3,), estimator_widths=(2,),
)


@pytest.fixture(scope="module")
def gmgc_bytes(tmp_path_factory):
    stats = NormStats(mean=np.array([0.5, -1.0]), std=np.array([1.5, 0.25]))
    gmm = GmmParams.from_arrays(np.array([0.4, 0.6]), np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
    path = tmp_path_factory.mktemp("gmgc") / "valid.gmgc"
    nets.save_checkpoint(path, nets.init_model(TINY, 1), stats, gmm)
    return path.read_bytes()


def parses_or_format_error(tmp_path, blob, load):
    path = tmp_path / "damaged"
    path.write_bytes(blob)
    try:
        load(path)
    except FormatError:
        pass


def truncated(data, blob):
    return blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]


def mutated(data, blob, start=0, stop=None):
    """``blob`` with one byte in [start, stop) changed."""
    out = bytearray(blob)
    position = data.draw(st.integers(start, (len(blob) if stop is None else stop) - 1), label="position")
    out[position] = data.draw(st.integers(0, 255).filter(lambda v: v != blob[position]), label="value")
    return bytes(out)


def test_valid_files_parse(tmp_path, gmgc_bytes):
    (tmp_path / "b").write_bytes(gmgc_bytes)
    assert nets.load_checkpoint(tmp_path / "b").model.arch == TINY


@PROPERTY_SETTINGS
@given(data=st.data())
def test_gmgc_truncated_prefix(tmp_path, gmgc_bytes, data):
    parses_or_format_error(tmp_path, truncated(data, gmgc_bytes), nets.load_checkpoint)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_gmgc_single_byte_mutation(tmp_path, gmgc_bytes, data):
    parses_or_format_error(tmp_path, mutated(data, gmgc_bytes), nets.load_checkpoint)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_gmgc_config_block_single_byte_mutation(tmp_path, gmgc_bytes, data):
    (config_len,) = struct.unpack_from("<I", gmgc_bytes, 8)
    parses_or_format_error(tmp_path, mutated(data, gmgc_bytes, 12, 12 + config_len), nets.load_checkpoint)
