"""The assembled sweep against closed-form theory.

The pilots X_P = Q [I 0] have X_P X_P^* = I, and the sweep rescales each
channel to ||H||_F^2 = N_r N_t, so its entries have mean power 1. The LS
estimate (1/sqrt(G)) Y_P X_P^* then errs by the pilot noise N Q^* / sqrt(G),
whose entries have variance sigma2 / G. The L-MMSE estimate scales it by
G / (G + sigma2), which leaves the error sigma2 / (G + sigma2) per entry.
Both hold in expectation, so each noise point's channel_mse is checked
against them to four standard errors of its per-trial column.

At saturation a CRC of length L passes 2^-L of the blocks.
"""

import math

import pytest

import mimolink.simulate as sim
from mimolink.config import SimConfig
from mimolink.simulate import run_sweep

GAIN = 0.5
NOISE_POWERS = (0.01, 0.1, 0.5)
THEORY = {"ls": lambda sigma2: sigma2 / GAIN, "lmmse": lambda sigma2: sigma2 / (GAIN + sigma2)}


@pytest.mark.parametrize("pilot_mode", ["unitary-random", "permutation"])
@pytest.mark.parametrize("estimator", ["ls", "lmmse"])
def test_channel_mse_matches_the_closed_form(estimator, pilot_mode):
    config = SimConfig(N_t=4, N_r=8, constellation="QAM", M_constellation=16, n_pilot=6,
                       pilot_mode=pilot_mode, G_override=GAIN, noise_power=NOISE_POWERS,
                       estimator=estimator, n_transmissions=2000)
    records = run_sweep(config)
    for noise_index, (sigma2, record) in enumerate(zip(NOISE_POWERS, records)):
        (mse, *_), _ = sim._point_trials(config, None, noise_index)
        assert mse.mean() == record.channel_mse
        standard_error = mse.std(ddof=1) / math.sqrt(len(mse))
        want = THEORY[estimator](sigma2)
        assert abs(record.channel_mse - want) <= 4 * standard_error, (
            f"sigma2 = {sigma2}: channel_mse {record.channel_mse} against {want}, "
            f"{(record.channel_mse - want) / standard_error:+.2f} standard errors")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("generator", ["111", "1101", "10011"])
def test_crc_passes_two_to_the_minus_l_of_blocks_at_saturation(generator, seed):
    """SISO QPSK at noise power 100, where the unit-power signal sits 20 dB
    below the noise.

    The QPSK slicer reads each bit as the sign of one coordinate of the
    equalized symbol, and the circularly symmetric noise, fresh on every
    channel use, swamps the signal there. So the received bits are close
    to independent fair coins, and the error pattern close to uniform over
    the codeword: the CRC passes it when it is a multiple of the generator,
    2^-L of all patterns. Sliced QAM at high noise is not uniform over
    symbols: the outer levels' decision regions are unbounded and take most
    of the noise, so its amplitude bits lean one way and the pass rate
    leaves 2^-L; it is not checked here.
    """
    crc_length = len(generator) - 1
    n = 4000
    config = SimConfig(seed=seed, N_t=1, N_r=1, constellation="QPSK", M_constellation=4, n_pilot=1,
                       noise_power=100.0, crc_generator=generator, crc_length=crc_length,
                       n_transmissions=n)
    (record,) = run_sweep(config)
    want = 2.0 ** -crc_length
    standard_error = math.sqrt(want * (1 - want) / n)
    passed = 1 - record.bler
    assert abs(passed - want) <= 4 * standard_error, (
        f"CRC pass rate {passed} against {want}, {(passed - want) / standard_error:+.2f} standard errors")
