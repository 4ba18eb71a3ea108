"""Every entry point of the network input spec accepts the same specs.

`features.InputSpec` is the one definition of a valid spec. `SimConfig`, a
dataset header read by `DatasetReader` and a checkpoint header read by
`load_params` must each accept a spec exactly when `InputSpec` does, and an
accepted spec must come back unchanged from dataset through `train` and the
checkpoint. A format is checked only on the specs it can encode: the dataset's
bitset holds no descending, repeated or out-of-range column, and the
checkpoint's uint32 words hold no negative one.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regrow.features import InputSpec
from regrow.network import (CheckpointError, TrainConfig, init_params, load_params,
                            save_params, train)
from regrow.simulate import (DATASET_NORMALIZED, DatasetError, DatasetReader, SimConfig,
                             record_dtype)

SIZES = st.sampled_from([0, 1, 7])
COLUMNS = st.one_of(
    st.lists(st.integers(0, 12), unique=True, max_size=4).map(lambda c: tuple(sorted(c))),
    st.lists(st.integers(-1, 13), max_size=4).map(tuple))  # descending, repeated, 13, -1


def accepts(make) -> bool:
    try:
        make()
    except ValueError:
        return False
    return True


def spec_of(x) -> InputSpec:
    return InputSpec(x.i_size, x.j_size, x.feature_columns, x.normalize)


def write_dataset(path, i_size, j_size, cols, normalize, count=3):
    """A version 2 header written by hand, and `count` zeroed records."""
    word = sum(1 << c for c in cols) | (DATASET_NORMALIZED if normalize else 0)
    records = np.zeros(count, record_dtype(i_size, j_size, len(cols)))
    records["length"] = records.itemsize - 4
    path.write_bytes(b"RGDS" + np.array([2, i_size, j_size, word], "<u4").tobytes()
                     + records.tobytes())


def write_checkpoint(path, i_size, j_size, cols, normalize):
    """A checkpoint by `save_params` whose header records the given spec:
    the params are built for as many columns, then given the spec unchecked."""
    params = init_params((4, 4, 4, 4, 8), (4, 4, 1), 2, 1, 1, tuple(range(max(1, len(cols)))))
    params.i_size, params.j_size = i_size, j_size
    params.feature_columns, params.normalize = cols, normalize
    save_params(params, path)


@settings(max_examples=80, deadline=None)
@given(SIZES, SIZES, COLUMNS, st.booleans())
@example(0, 7, (0, 1, 2), True)    # a dataset header with I = 0
@example(1, 1, (1, 0), False)      # a checkpoint with descending columns
def test_every_entry_point_accepts_what_input_spec_accepts(i_size, j_size, cols, normalize):
    valid = accepts(lambda: InputSpec(i_size, j_size, cols, normalize))
    assert accepts(lambda: SimConfig(i_size=i_size, j_size=j_size, feature_columns=cols,
                                     normalize=normalize, seed=3)) == valid
    with tempfile.TemporaryDirectory() as tmp:
        dataset, ckpt = Path(tmp) / "d.bin", Path(tmp) / "m.ckpt"
        if list(cols) == sorted({*cols} & {*range(13)}):  # the bitset can encode it
            write_dataset(dataset, i_size, j_size, cols, normalize)
            if valid:
                with DatasetReader(dataset) as ds:
                    assert ds.spec == InputSpec(i_size, j_size, cols, normalize)
            else:
                with pytest.raises(DatasetError, match=f"^{re.escape(str(dataset))}: "):
                    DatasetReader(dataset)
        if min(cols, default=0) >= 0:  # uint32 words can encode it
            write_checkpoint(ckpt, i_size, j_size, cols, normalize)
            if valid:
                assert spec_of(load_params(ckpt)) == InputSpec(i_size, j_size, cols, normalize)
            else:
                with pytest.raises(CheckpointError, match=f"^{re.escape(str(ckpt))}: "):
                    load_params(ckpt)
        if valid:
            # the round trip: dataset -> train -> save_params -> load_params
            ckpt.unlink()
            params, _ = train(dataset, TrainConfig((4, 4, 4, 4, 8), (4, 4, 1), epochs=1,
                                                   checkpoint=str(ckpt)))
            assert spec_of(params) == spec_of(load_params(ckpt)) == \
                InputSpec(i_size, j_size, cols, normalize)
