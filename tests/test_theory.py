"""The assembled sweep against closed-form theory.

The pilots X_P = Q [I 0] have X_P X_P^* = I, and the sweep rescales each
channel to ||H||_F^2 = N_r N_t, so its entries have mean power 1. The LS
estimate (1/sqrt(G)) Y_P X_P^* then errs by the pilot noise N Q^* / sqrt(G),
whose entries have variance sigma2 / G. The L-MMSE estimate scales it by
G / (G + sigma2), which leaves the error sigma2 / (G + sigma2) per entry.
Both hold in expectation, so each noise point's channel_mse is checked
against them to four standard errors of its per-trial column.
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
