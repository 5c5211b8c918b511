"""Output pins: the SHA-256 of every file each experiment writes.

Each experiment runs at its default config (plus ``fbm-gen`` with the
Cholesky generator and ``cycle-run`` with the original-X stage-3 rule), and
every CSV and ``manifest.txt`` must hash to the digest written here.  A
refactor that keeps these pins keeps every output byte.  A change that moves
a pin on purpose names the old and the new digest in CHANGES.md.

``optimal_impact_leverage_form`` feeds no experiment, so one more pin
covers the reprs of its results on a fixed grid.  So do the library results
that only the benchmark computes, at small sizes: the Monte Carlo moments
(also at a size whose sums span several leaf blocks),
a batch of fBM paths one row longer than a block, and the fOU wealth chain.
"""

import hashlib

import numpy as np
import pytest

from liqlab.experiments import run_experiment
from liqlab.impact import (GrowthModel, optimal_impact_leverage_form,
                           simulate_self_financing)
from liqlab.paths import (FouParams, generate_fbm_batch, increment_autocorr,
                          refine_linear, simulate_fou, variance_slope)

PINS = [
    ("fbm-gen", (), {
        "fbm_0000.csv":
            "518d2588d4c615d0160a0fae50f0a8c60a2d363c7b96931dae1c190deef9a760",
        "manifest.txt":
            "604258dd0ffaa08d0367ea699914b8930673130269b406f9abfd329d051fc9c5",
    }),
    ("fbm-gen", (("method", "cholesky"),), {
        "fbm_0000.csv":
            "1839e6c6eaaf87627f04a09a7349e24dbed9cf35b6c36266e5de23dbf104beb2",
        "manifest.txt":
            "a6bac67af9deb8614890fd5310ca704184f5a938a67697872814a0c4e2196c29",
    }),
    # blocks of a 4096-step Davies-Harte draw hold 2 rows: 5 paths end on a
    # block of one
    ("fbm-gen", (("n_paths", 5), ("n_steps", 4096)), {
        "fbm_0000.csv":
            "daccde84ec34804887f8e4db64d4ebed8e10434010ded75b46ea5a5640fd8cc9",
        "fbm_0001.csv":
            "9485057c4d791a5624caa20d616c99e409a2fd497a3289e8bbc940d593586cbb",
        "fbm_0002.csv":
            "166eae18b01f1f6ae973a9ecc6dec1e43c1f8e5b127a4382243c4da8f9a8c047",
        "fbm_0003.csv":
            "e0fc4819d10ec77f9fe892fc765171b44dfe6737860f0e7d020caec210c97b3d",
        "fbm_0004.csv":
            "bc51e6d907591d40d2504d83f60051f46404594dad6bffa4025c007e3e9ad4cf",
        "manifest.txt":
            "b92aaaf1e33b1e22895a6bc9b1c1e6ed12eb6f210130c7a7cb3ac4684e29af03",
    }),
    ("impact-curve", (), {
        "impact_curve.csv":
            "bc96cec05456862b8d25def2f2ddf7c68f0a1e0b10264bab02474838f11288d9",
        "manifest.txt":
            "db3927aaffe65be6e4c59b07a8386dcb5adffccedd0719dbd914d7dae0b7ec1d",
    }),
    ("impact-verify", (), {
        "impact_verify.csv":
            "b448adfc65fac49f7f334896474e042d2b1d9c8ca3c845821ea2aa11f38d61cc",
        "impact_exponent.csv":
            "d356f3526975bd22a64a59616bfbdf31122bfd58708599d8b4aa65817f8e404f",
        "manifest.txt":
            "199fd264457a9109a73c873c7c6459fc79250d6fdf99657de28640b4c2ce5ab6",
    }),
    ("cpmm-compare", (), {
        "cpmm_compare.csv":
            "d7dec88959e418c8a61b62357140bc6c7ffd465608cd2824714f17159512f866",
        "pool_trace.csv":
            "23b6d37b5a5b4d3d61d641270d3814c47294d673334c80cc47052393db4d75b0",
        "manifest.txt":
            "01b81da39adf9753da4745173ff6110cc66de35741a4d94e76e2ec51d4c06df5",
    }),
    ("cycle-run", (), {
        "cycle_report.csv":
            "8d33cd7991364dd98b1ec96563100f94ea4b81ce4093490095d4f2839f26a09e",
        "manifest.txt":
            "365b46800c695930082fcf4d02cfeefd3e6e998575fadbc4a325e173dd411f76",
    }),
    ("cycle-run", (("stage3_mode", "original-x"),), {
        "cycle_report.csv":
            "e2de1567af20140e2d4205797a6a4aeb4d3176d587d2bf3651e80575285bf7a9",
        "manifest.txt":
            "97d9feb0e13547c9a230f19c85f2f60e99c8c06c22c5db8353d76c0f0a8f6df0",
    }),
    # Signed-zero edges: every ledger field accumulates from a +0.0 start
    # (0.0 - 0.0 is +0.0 where -0.0 alone is not), and zero-sized stages
    # leave the pool as it was.
    ("cycle-run", (("m", -0.0), ("sigma_amt", -0.0), ("closure", False),
                   ("g_amt", 0.0), ("h_amt", 0.0)), {
        "cycle_report.csv":
            "3351e5592c3ea1013f9d5f24d28266c0a7b75d55b5756b5b08a648e0ce5a4566",
        "manifest.txt":
            "1314c1c9372700c01c1c4bce371ee4685b38fd4374543d99d70f3808ad522ac9",
    }),
    ("cycle-run", (("m", 0.0), ("sigma_amt", 0.0), ("closure", False),
                   ("g_amt", -0.0), ("h_amt", -0.0)), {
        "cycle_report.csv":
            "114760780a6757163621876af9582361832e05dce1a6a518cac58fab77c58d40",
        "manifest.txt":
            "f2d7057c2653500680584621646111992e7ea87242710d1de2ee66257167e87f",
    }),
    ("cycle-run", (("alpha", 1e-300), ("m", 0.0), ("sigma_amt", 0.0),
                   ("closure", False), ("g_amt", 0.0), ("h_amt", 0.0)), {
        "cycle_report.csv":
            "47a4f1a0e626ca296ae32a2081f601f6cdd01ee27ff6d299af0b20e89be6c29d",
        "manifest.txt":
            "b251962a2795e60fe9715ce0a76781013b2ff03c28b794992586603ae662c142",
    }),
    ("catbond-optimize", (), {
        "catbond_optimize.csv":
            "a1ad8d1fe782ca5eb55c8466ed73821fb87ce687db80381ed5fe84db1fc5ea72",
        "manifest.txt":
            "703c62d4cbed35630c4c1889ae0c7c7aff406f14342b3f87261d32600511d818",
    }),
    ("catbond-sensitivity", (), {
        "catbond_sensitivity.csv":
            "4c6a69a39f2d23ccc86ec9501e1267ca4ec213a61447061b8357d73858d052e5",
        "iso_shift.csv":
            "a452cd23259e63829e908913210cdaed35d5ba511c8503b869564812734513c3",
        "manifest.txt":
            "9bcfa6ef485eb4529d7931e250db3dd6cd7b39efda0c538f67bbeb1adf7b335d",
    }),
]

LEVERAGE_PIN = (
    "61344863d61bf85b3365ec404c8336e4a72d1a24ff644b5fe0876d831580cfec")

LEVERAGE_Q = (1e-8, 3e-5, 0.02, 0.5, 1.0, 2.0, 7.0, 123.0, 4.5e4, 1e8)
LEVERAGE_PRICE = (1e-4, 0.3, 1.0, 17.0, 1e4)
LEVERAGE_K_SIGMA = ((1.0, 1.0), (0.002, 350.0), (900.0, 0.004))

# (hurst, variance_slope repr, increment_autocorr repr) at 64 paths x 128 steps
MOMENT_PINS = [
    (0.3, "0.5342937402109081", "-0.25191029725515346"),
    (0.7, "1.3132106408660091", "0.3037471726446746"),
]

# (hurst, variance_slope repr, (increment_autocorr repr,)) at 300 paths x 256
# steps: each sum spans three leaf blocks of the pairwise reduction, 128 rows
# for the variance and 2**15 increments for the pair sums; a one-tuple, so
# that the test ids stay [...-autocorrs0] and [...-autocorrs1]
MULTI_BLOCK_MOMENT_PINS = [
    (0.3, "0.5976975401977482", ("-0.24344460442732774",)),
    (0.7, "1.3802710032551384", ("0.3148476569639859",)),
]

# (method, n_paths, SHA-256 of the batch bytes) at 256 steps: a block holds
# 32 Davies-Harte rows or 64 Cholesky rows, so each batch ends on a block of one
BATCH_PINS = [
    ("auto", 33,
     "5aae3a85b0ef27669afe5204ae3adabc69ee1ba96e7bb87a74a1b1f440172ad4"),
    ("davies-harte", 33,
     "5aae3a85b0ef27669afe5204ae3adabc69ee1ba96e7bb87a74a1b1f440172ad4"),
    ("cholesky", 65,
     "9ccd3e5d57f3bfc4d2fad9864de48b64964b16c2dad67d3fcceb5ad44607396a"),
]

# (hurst, method, SHA-256 of the fOU driver and its wealth paths refined
# x1, x2 and x4) at 256 steps
FOU_WEALTH_PINS = [
    (0.5, "auto",
     "ac213bc2e48e01df9936765b19b454dc47250b3d98d526cf3fac1eb03210517a"),
    (0.7, "cholesky",
     "efc09f6f3e70b365112de5175e5109c2d67e40205311b541d7516027fcb4f780"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


PIN_IDS = [f"{experiment}{''.join(f'[{k}={v}]' for k, v in overrides)}"
           for experiment, overrides, _ in PINS]


def test_pin_ids_are_unique():
    # overrides compare -0.0 == 0.0, so only the ids, which print the sign
    # of a zero, can tell the signed-zero pins apart
    assert len(set(PIN_IDS)) == len(PIN_IDS)


@pytest.mark.parametrize("experiment, overrides, digests", PINS, ids=PIN_IDS)
def test_experiment_outputs_are_pinned(tmp_path, experiment, overrides, digests):
    outputs = run_experiment(experiment, dict(overrides), tmp_path)
    names = [name for name, _, _ in outputs] + ["manifest.txt"]
    got = {name: _sha256((tmp_path / name).read_bytes()) for name in names}
    assert got == digests


def test_leverage_form_reprs_are_pinned():
    reprs = []
    for k, sigma in LEVERAGE_K_SIGMA:
        model = GrowthModel(capital_scale_k=k, time_per_size_khat=1.0, sigma=sigma)
        for q in LEVERAGE_Q:
            for price in LEVERAGE_PRICE:
                reprs.append(repr(optimal_impact_leverage_form(q, price, model)))
    assert _sha256("\n".join(reprs).encode()) == LEVERAGE_PIN


@pytest.mark.parametrize("hurst, slope, autocorr", MOMENT_PINS)
def test_monte_carlo_moments_are_pinned(hurst, slope, autocorr):
    args = (64, 128, 1.0 / 128, hurst, 7)
    assert (repr(variance_slope(*args)), repr(increment_autocorr(*args))) == (
        slope, autocorr)


@pytest.mark.parametrize("hurst, slope, autocorrs", MULTI_BLOCK_MOMENT_PINS)
def test_multi_block_monte_carlo_moments_are_pinned(hurst, slope, autocorrs):
    args = (300, 256, 1.0 / 256, hurst, 13)
    assert repr(variance_slope(*args)) == slope
    assert (repr(increment_autocorr(*args)),) == autocorrs


@pytest.mark.parametrize("method, n_paths, digest", BATCH_PINS)
def test_fbm_batch_is_pinned(method, n_paths, digest):
    batch = generate_fbm_batch(n_paths, 256, 1.0 / 256, 0.7, 11, method=method)
    assert _sha256(batch.tobytes()) == digest


@pytest.mark.parametrize("hurst, method, digest", FOU_WEALTH_PINS)
def test_fou_wealth_chain_is_pinned(hurst, method, digest):
    params = FouParams(kappa=-0.05, level=0.0, sigma=0.4, hurst=hurst)
    driver = simulate_fou(params, 10.0, 256, 1.0 / 256, 5, method=method)
    chain = [driver.values] + [
        simulate_self_financing(refine_linear(driver, f), params, 1.0).values
        for f in (1, 2, 4)]
    assert _sha256(np.concatenate(chain).tobytes()) == digest
