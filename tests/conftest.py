"""Shared fixtures."""

import numpy as np
import pytest

from tricodec.decoder import init_decoder_params
from tricodec.encoder import init_encoder_params
from tricodec.quantizer import init_quantizer_params


@pytest.fixture
def float64_draws():
    """``float64_draws(config, seed)``: the float64 parameters, in draw
    order, that ``Codec(config, seed)`` holds cast to float32. Float64
    references run the functional layer on them, and a float64 checkpoint
    like one written before every codec held float32 stores them."""

    def draws(config, seed):
        enc, rng = config.encoder, np.random.default_rng(seed)
        return {
            **init_encoder_params(enc, rng),
            **init_quantizer_params(config.quantizer, enc.hidden, rng),
            **init_decoder_params(config.decoder, enc.hidden, enc.strides, rng),
        }

    return draws
