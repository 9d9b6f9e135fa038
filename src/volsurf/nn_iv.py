"""Implied-volatility multilayer perceptron with arbitrage penalties.

A small fully-connected network maps (log T, log-moneyness), affinely
standardized, through softplus hidden layers to a bounded volatility
Sigma(T, kappa); the implied total variance is Theta = Sigma^2 T.  Because
every piece is smooth, the first and second derivatives of Theta needed by
the implied-variance Dupire ratio are propagated in closed form alongside the
values: each layer carries the tuple

    (value, d/dk, d2/dk2, d/dlogT)

and training backpropagates through that extended forward pass, so the
arbitrage penalties (negative calendar term, negative butterfly term, local
variance outside a band) are differentiable and exact on their grid.  The
observation weights are nearest-neighbor distances in the (T, kappa) plane,
which stops dense quote clusters from drowning out isolated points.

Each training run (one ``_train_once`` call) builds a ``_Workspace`` before
its first epoch, on the penalty grid ``train`` built once for all its runs:
one block of (h, n) arrays for each pass that every epoch rewrites in
place, one over the data points and at most two over penalty-grid blocks
``BLOCK_WIDTH`` points wide.  An epoch runs the data pass, then the grid
block by block, summing the penalty terms and gradients as it goes: each
grid point's penalty adjoints depend on that point alone, and a block's
arrays stay in cache.  Every penalty is a hinge, so a block whose three
hinge sums are zero has no active point and a zero penalty gradient: it
skips its backward pass.  Each block is first screened in float32, on
float32 copies of the network that every call refreshes in place: when
every point clears every hinge by SCREEN_MARGIN (1 + |x|), far more than the
float32 pass drifts from the float64 one, the float64 sums are 0.0 too and
the block is skipped.  Any other block, a non-finite one included, takes
the float64 pass.  The run is scored by its best epoch's loss and
components, computed on that workspace (or, with no epochs, by one pass over
it).  It is dropped when the run returns; nothing is cached between runs.
The in-place passes keep the operation order of the plain array expressions,
so the model bytes are those of fresh arrays.  Passes outside training
(``sigma``, ``forward_theta``) build their own arrays per call.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import local_vol
from .market_data import MarketFrame
from .serialize import number, number_array

log = logging.getLogger(__name__)

SIGMA_LO = 0.01
SIGMA_HI = 2.0

# the hidden layer widths, Adam's step size, and the epochs each candidate
# of a lambda search trains for
HIDDEN = (40, 40, 40)
LEARNING_RATE = 1e-3
SEARCH_EPOCHS = 300

# the local-variance band the third penalty keeps the surface inside, and the
# maturity and moneyness (K / S0) spans of the log-spaced penalty grid
VARIANCE_BAND = (1e-4, 4.0)
PENALTY_MATURITY_RANGE = (0.005, 10.0)
PENALTY_MONEYNESS_RANGE = (0.5, 2.0)

# the (lambda1, lambda2, lambda3) triples a lambda search trains: every
# combination of 0.1, 1 and 10, the last strength varying fastest
LAMBDA_CANDIDATES = tuple(itertools.product((0.1, 1.0, 10.0), repeat=3))


class TrainingError(RuntimeError):
    """Loss became non-finite; carries the epoch where it happened."""

    def __init__(self, message, epoch: int):
        super().__init__(message)
        self.epoch = epoch


@dataclass
class NnIvModel:
    """Weights, biases and input/output transforms of the IV network."""

    weights: list
    biases: list
    input_mean: np.ndarray
    input_scale: np.ndarray
    sigma_lo: float = SIGMA_LO
    sigma_hi: float = SIGMA_HI
    spot: float = 100.0

    t_range = None    # no calibrated maturity range: callers pick one

    @classmethod
    def initialize(cls, seed: int, hidden: tuple, spot: float = 100.0, start_sigma: float = 0.2):
        """He-scaled hidden layers; the output layer starts small and biased
        so the initial surface sits near ``start_sigma`` with the bounded
        output map far from saturation (saturated sigmoids kill gradients).
        """
        rng = np.random.default_rng(seed)
        sizes = [2, *hidden, 1]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = math.sqrt(2.0 / fan_in)
            weights.append(rng.normal(scale=scale, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        weights[-1] *= 0.01
        frac = (start_sigma - SIGMA_LO) / (SIGMA_HI - SIGMA_LO)
        biases[-1][:] = math.log(frac / (1.0 - frac))
        return cls(
            weights=weights, biases=biases,
            input_mean=np.zeros(2), input_scale=np.ones(2), spot=spot,
        )

    @classmethod
    def constant(cls, sigma: float, spot: float = 100.0):
        """A network that outputs sigma everywhere (zero hidden weights)."""
        if not SIGMA_LO < sigma < SIGMA_HI:
            raise ValueError(f"sigma must be inside ({SIGMA_LO}, {SIGMA_HI})")
        frac = (sigma - SIGMA_LO) / (SIGMA_HI - SIGMA_LO)
        logit = math.log(frac / (1.0 - frac))
        weights = [np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((1, 4))]
        biases = [np.zeros(4), np.zeros(4), np.full(1, logit)]
        return cls(
            weights=weights, biases=biases,
            input_mean=np.zeros(2), input_scale=np.ones(2), spot=spot,
        )

    def standardized_inputs(self, t, kappa):
        t = np.asarray(t, dtype=float)
        kappa = np.asarray(kappa, dtype=float)
        x0 = (np.log(t) - self.input_mean[0]) / self.input_scale[0]
        x1 = (kappa - self.input_mean[1]) / self.input_scale[1]
        return x0, x1

    def sigma(self, t, kappa):
        """Implied volatility surface value(s)."""
        state = _forward(self, t, kappa)
        out = state.sigma
        return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))

    def forward_theta(self, t, kappa):
        """(Theta, dT Theta, dk Theta, dkk Theta) with analytic derivatives."""
        shape = np.shape(t)
        state = _forward(self, t, kappa)
        theta, d_t, d_k, d_kk = _theta_tuple(self, state)
        if shape == ():
            return float(theta[0]), float(d_t[0]), float(d_k[0]), float(d_kk[0])
        return (
            theta.reshape(shape), d_t.reshape(shape),
            d_k.reshape(shape), d_kk.reshape(shape),
        )

    def put_prices(self, frame: MarketFrame):
        """Currency put prices of the frame's quotes, from one forward pass over them."""
        return frame.put_prices_at(self.sigma(frame.maturity, frame.log_moneyness))


# ---------------------------------------------------------------------------
# extended forward / backward passes
# ---------------------------------------------------------------------------

BLOCK_WIDTH = 512
"""Penalty-grid points per training pass.  A (40, 512) float64 layer array
is 160 KB, so the dozen arrays one hidden layer's forward or backward step
touches stay in a 2 MB per-core L2 cache; over the whole 5,000-point default
grid each would be 1.6 MB and every elementwise pass would stream from
memory (on a 2-core Xeon VM a multiply costs about 1.1 ns per element there
against 0.3 ns at this width)."""


def _sigmoid(z, out=None):
    """0.5 (1 + tanh(z / 2)), written into out when given."""
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _softplus(z, out, tmp):
    """log(1 + e^z) as max(z, 0) + log1p(e^-|z|), written into out.

    One exp per element, where ``np.logaddexp(0, z)`` takes a scalar path
    about six times slower.  e^-|z| never overflows, and where it underflows
    (|z| > 708) log1p returns it unchanged, which is the softplus to double
    precision, so the underflow is not flagged.  ``tmp`` is scratch of z's
    shape.
    """
    np.abs(z, out=tmp)
    np.negative(tmp, out=tmp)
    with np.errstate(under="ignore"):
        np.exp(tmp, out=tmp)
    np.log1p(tmp, out=out)
    out += np.maximum(z, 0.0, out=tmp)
    return out


def _input_streams(w):
    """(zp, zr) of the first layer as (h, 1) columns of its weights.

    The input streams are constants: p = (0, 1), q = 0 and r = (1, 0), so
    W p and W r are the columns of W and W q is zero.
    """
    return w[:, 1:2], w[:, 0:1]


def _layer_sizes(model: NnIvModel) -> list:
    return [model.weights[0].shape[1], *(w.shape[0] for w in model.weights)]


class _Pass:
    """The arrays of one extended forward and backward pass over n points.

    They are the standardized inputs x; per hidden layer its pre-activation
    streams (zp, zq, zr), its sigmoid f1 = softplus'(z) and its output
    streams (a, p, q, r), all eight read by the backward pass; the output
    layer's four rows; a scratch array for z; and two backward temporaries.
    The first layer has no stream arrays: its inputs' derivative streams are
    constant (``_input_streams``).  The backward pass writes each layer's
    adjoints over the output streams of the layer below, once its gradient
    has read them.  Every call rewrites the arrays in place, in the
    operation order of the plain array expressions, so a reused pass gives
    the same bits as a fresh one; only the latest call's values are valid.

    A workspace pass, reused for a whole training run, is at most
    ``BLOCK_WIDTH`` points wide and takes its arrays as views of one block
    (``block=True``).  A pass made for one evaluation (``_forward``)
    allocates them one by one over all its points: a block of tens of MB
    freed after one use raises glibc's mmap threshold to its size, and the
    heap then keeps later allocations of up to that size resident.

    The arrays are float64 unless ``dtype`` says otherwise.  The training
    screen runs float32 passes on a network whose parameters and input
    transform are float32 too (``_Workspace.model32``), so no step promotes
    to float64.
    """

    def __init__(self, sizes, n: int, block: bool = False, dtype=np.float64):
        # per hidden layer zp, zq, zr (none for the first), f1, a, p, q, r
        counts = [8 if i else 5 for i in range(len(sizes) - 2)]
        rows = ([sizes[0]] + [h for h, k in zip(sizes[1:-1], counts) for _ in range(k)]
                + [1] * 4 + [max(sizes[1:])] * 3)
        if block:
            memory = np.empty(sum(rows) * n, dtype)
            offsets = np.cumsum([0, *rows]) * n
            views = [memory[lo:lo + h * n].reshape(h, n) for lo, h in zip(offsets, rows)]
        else:
            views = [np.empty((h, n), dtype) for h in rows]
        self.n = n
        self.x = views[0]
        self.layers = []
        pos = 1
        for k in counts:
            arrays = tuple(views[pos:pos + k])
            self.layers.append(arrays if k == 8 else (None, None, None, *arrays))
            pos += k
        self.head = tuple(views[-7:-3])
        self.scratch, self.f2, self.f3 = views[-3:]
        self.t = None
        self.sigma = None
        self.sigma_streams = ()    # (sp, sq, sr) after the output map
        self._s = self._g1 = self._g2 = None

    def forward(self, model: NnIvModel, t, kappa) -> "_Pass":
        self.t = np.asarray(t, dtype=self.x.dtype).ravel()
        x0, x1 = model.standardized_inputs(self.t, np.asarray(kappa, dtype=float).ravel())
        a = self.x
        a[0], a[1] = x0, x1
        p = q = r = None
        for w, b, (zp, zq, zr, f1, a_out, p_out, q_out, r_out) in zip(
            model.weights, model.biases, self.layers
        ):
            z = self.scratch[: w.shape[0]]
            np.matmul(w, a, out=z)
            z += b[:, None]
            _sigmoid(z, out=f1)
            _softplus(z, out=a_out, tmp=p_out)
            # q = f1 (1 - f1) zp^2 + f1 zq
            np.subtract(1.0, f1, out=q_out)
            q_out *= f1
            if p is None:
                zp, zr = _input_streams(w)
                q_out *= np.square(zp)
            else:
                np.matmul(w, p, out=zp)
                np.matmul(w, q, out=zq)
                np.matmul(w, r, out=zr)
                q_out *= np.square(zp, out=z)
                q_out += np.multiply(f1, zq, out=z)
            np.multiply(f1, zp, out=p_out)
            np.multiply(f1, zr, out=r_out)
            a, p, q, r = a_out, p_out, q_out, r_out

        w, b = model.weights[-1], model.biases[-1]
        o, op, oq, orr = self.head
        np.matmul(w, a, out=o)
        o += b[:, None]
        if p is None:
            op[:], orr[:] = _input_streams(w)
            oq[:] = 0.0
        else:
            np.matmul(w, p, out=op)
            np.matmul(w, q, out=oq)
            np.matmul(w, r, out=orr)

        o, op, oq, orr = o[0], op[0], oq[0], orr[0]
        span = model.sigma_hi - model.sigma_lo
        s = _sigmoid(o)
        g1 = span * s * (1.0 - s)
        g2 = g1 * (1.0 - 2.0 * s)
        self.sigma = model.sigma_lo + span * s
        self.sigma_streams = (g1 * op, g2 * op**2 + g1 * oq, g1 * orr)
        self._s, self._g1, self._g2 = s, g1, g2
        return self

    def backward(self, model: NnIvModel, bar_sigma, bar_streams=None):
        """Gradients of sum(bar_sigma * Sigma + bar_streams . streams) w.r.t. params.

        bar_streams, when given, is the adjoint tuple (sp_bar, sq_bar, sr_bar)
        of the Sigma derivative streams.  Reads the latest forward call and
        overwrites its hidden-layer outputs.
        """
        o, op, oq, orr = (x[0] for x in self.head)
        span = model.sigma_hi - model.sigma_lo
        s, g1, g2 = self._s, self._g1, self._g2
        g3 = span * s * (1.0 - s) * (1.0 - 6.0 * s + 6.0 * s * s)

        bar_sigma = np.asarray(bar_sigma, dtype=float)
        if bar_streams is None:
            sp_bar = sq_bar = sr_bar = np.zeros_like(bar_sigma)
        else:
            sp_bar, sq_bar, sr_bar = (np.asarray(v, dtype=float) for v in bar_streams)

        o_bar = (
            bar_sigma * g1
            + sp_bar * g2 * op
            + sq_bar * (g3 * op**2 + g2 * oq)
            + sr_bar * g2 * orr
        )
        op_bar = sp_bar * g1 + sq_bar * 2.0 * g2 * op
        oq_bar = sq_bar * g1
        or_bar = sr_bar * g1
        adjoints = (o_bar[None, :], op_bar[None, :], oq_bar[None, :], or_bar[None, :])

        n_layers = len(model.weights)
        grads_w = [None] * n_layers
        grads_b = [None] * n_layers
        for idx in range(n_layers - 1, -1, -1):
            za, zp_bar, zq_bar, zr_bar = adjoints
            if idx < n_layers - 1:
                # output adjoints become pre-activation adjoints in place
                zp, zq, zr, f1 = self.layers[idx][:4]
                if not idx:
                    zp, zr = _input_streams(model.weights[0])
                h = f1.shape[0]
                f2, f3, tmp = self.f2[:h], self.f3[:h], self.scratch[:h]
                np.subtract(1.0, f1, out=f2)
                f2 *= f1
                np.multiply(f1, 2.0, out=f3)
                np.subtract(1.0, f3, out=f3)
                f3 *= f2
                # z_bar = a_bar f1 + p_bar f2 zp + q_bar (f3 zp^2 + f2 zq) + r_bar f2 zr
                if idx:
                    np.square(zp, out=tmp)
                    tmp *= f3
                    tmp += np.multiply(f2, zq, out=f3)
                else:
                    np.multiply(f3, np.square(zp), out=tmp)
                tmp *= zq_bar
                za *= f1
                np.multiply(zp_bar, f2, out=f3)
                f3 *= zp
                za += f3
                za += tmp
                np.multiply(zr_bar, f2, out=f3)
                f3 *= zr
                za += f3
                # zp_bar = p_bar f1 + q_bar 2 f2 zp, zq_bar = q_bar f1, zr_bar = r_bar f1
                np.multiply(zq_bar, 2.0, out=tmp)
                tmp *= f2
                tmp *= zp
                zp_bar *= f1
                zp_bar += tmp
                if idx:
                    zq_bar *= f1
                zr_bar *= f1

            grads_b[idx] = za.sum(axis=1)
            if idx:
                inputs = a_in, p_in, q_in, r_in = self.layers[idx - 1][4:]
                grads_w[idx] = za @ a_in.T + zp_bar @ p_in.T + zq_bar @ q_in.T + zr_bar @ r_in.T
                w_t = model.weights[idx].T
                for src, dst in zip((za, zp_bar, zq_bar, zr_bar), inputs):
                    np.matmul(w_t, src, out=dst)
                adjoints = inputs
            else:
                # constant input streams: p and r pick a column, q adds nothing
                grads_w[idx] = za @ self.x.T
                grads_w[idx][:, 0] += zr_bar.sum(axis=1)
                grads_w[idx][:, 1] += zp_bar.sum(axis=1)
        return grads_w, grads_b


def _forward(model: NnIvModel, t, kappa) -> _Pass:
    """Extended forward pass over freshly allocated arrays, for one evaluation."""
    return _Pass(_layer_sizes(model), np.size(t)).forward(model, t, kappa)


def _theta_tuple(model: NnIvModel, state: _Pass):
    """Theta and its (T, kappa) derivatives from the Sigma streams."""
    t = state.t
    sigma = state.sigma
    sp, sq, sr = state.sigma_streams
    s_t, s_k = model.input_scale[0], model.input_scale[1]
    theta = sigma**2 * t
    d_k = 2.0 * sigma * t * sp / s_k
    d_kk = 2.0 * t * (sp**2 + sigma * sq) / s_k**2
    d_t = sigma**2 + 2.0 * sigma * sr / s_t
    return theta, d_t, d_k, d_kk


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def compute_weights(points: np.ndarray) -> np.ndarray:
    """Nearest-neighbor distance of every (T, kappa) observation point."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    n = points.shape[0]
    if n < 2:
        raise ValueError("need at least two observation points")
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(dist, np.inf)
    w = dist.min(axis=1)
    if np.any(w == 0.0):
        log.warning("duplicate observation points produce zero weights")
    return w


def build_penalty_grid(n_maturity: int, n_moneyness: int):
    """(T, kappa) arrays of the penalty grid, log-spaced in both axes over
    PENALTY_MATURITY_RANGE and PENALTY_MONEYNESS_RANGE, maturity-major."""
    if min(n_maturity, n_moneyness) < 1:
        raise ValueError("penalty grid needs at least one node")
    t = np.geomspace(PENALTY_MATURITY_RANGE[0], PENALTY_MATURITY_RANGE[1], n_maturity)
    kappa = np.log(np.geomspace(PENALTY_MONEYNESS_RANGE[0], PENALTY_MONEYNESS_RANGE[1],
                                n_moneyness))
    tt, kk = np.meshgrid(t, kappa, indexing="ij")
    return tt.ravel(), kk.ravel()


def _penalty_pieces(theta, d_t, d_k, d_kk, kappa):
    """Raw penalty integrands and the indicator sets the gradient needs.

    The band term measures the Dupire ratio outside VARIANCE_BAND where the
    denominator exceeds local_vol.DENOM_FLOOR.
    """
    lo, hi = VARIANCE_BAND
    cal, butt = local_vol.calendar_butterfly_terms(theta, d_t, d_k, d_kk, kappa)
    cal_neg = np.maximum(-cal, 0.0)
    butt_neg = np.maximum(-butt, 0.0)
    usable = butt > local_vol.DENOM_FLOOR
    ratio = np.where(usable, cal / np.where(usable, butt, 1.0), 0.0)
    above = usable & (ratio > hi)
    below = usable & (ratio < lo)
    band_excess = np.where(above, ratio - hi, 0.0) + np.where(below, lo - ratio, 0.0)
    return cal, butt, cal_neg, butt_neg, ratio, above, below, band_excess, usable


SCREEN_MARGIN = 1e-4
"""delta of the float32 screen: a grid block is skipped only when every
point clears every hinge by delta (1 + |x|).  Over every epoch of 300 on the
README flat and SSVI-skew books, and of nn_skew's 15, the float32 pass moved
cal, butt and the band differences by at most 3.4e-6 of that scale, a
thirtieth of this margin."""


def _clears_every_hinge(cal, butt) -> bool:
    """Whether every point of a block clears every hinge by SCREEN_MARGIN.

    The hinges are cal > 0, butt > 0, butt > local_vol.DENOM_FLOOR (a usable
    Dupire ratio; this test covers butt > 0 too) and the ratio cal / butt
    strictly inside VARIANCE_BAND.  The band is tested as cal - lo butt > 0
    and hi butt - cal > 0, each clearing delta (1 + |cal| + |band edge|
    |butt|): the ratio itself drifts by far more than delta (1 + |ratio|)
    where butt is small, these differences do not.  A NaN or infinity fails
    every comparison.
    """
    lo, hi = VARIANCE_BAND
    d = SCREEN_MARGIN
    cal_abs, butt_abs = np.abs(cal), np.abs(butt)
    return bool(
        np.all(cal > d * (1.0 + cal_abs))
        and np.all(butt > local_vol.DENOM_FLOOR + d * (1.0 + butt_abs))
        and np.all(cal - lo * butt > d * (1.0 + cal_abs + abs(lo) * butt_abs))
        and np.all(hi * butt - cal > d * (1.0 + cal_abs + abs(hi) * butt_abs))
    )


class _Workspace:
    """Penalty grid and pass arrays of one training run, built once.

    Fixed by the network's layer sizes, the number of data points and the
    penalty grid's (T, kappa) arrays; the penalty strengths are read per
    call.  The grid is visited in blocks of ``BLOCK_WIDTH`` columns (all of
    it when it is smaller), so it needs one pass of that width and, when the
    width does not divide the grid, one for the remainder: about 4 MB each
    for the default 40x40x40 net, whatever the grid size.  The float32
    screen has its own pair of passes, half that size, and float32 copies
    of the grid's maturities and of the network (``model32``), which
    ``refresh`` rewrites in place.
    """

    def __init__(self, model: NnIvModel, n_data: int, grid):
        sizes = _layer_sizes(model)
        self.grid_t, self.grid_kappa = grid
        m = self.grid_t.size
        width = min(BLOCK_WIDTH, m)
        self.data = _Pass(sizes, n_data, block=True)
        self.grid, self.tail, self.grid32, self.tail32 = (
            _Pass(sizes, n, block=True, dtype=dtype) if n else None
            for dtype in (np.float64, np.float32) for n in (width, m % width)
        )
        self.grid_t32 = self.grid_t.astype(np.float32)
        self.model32 = NnIvModel(
            weights=[w.astype(np.float32) for w in model.weights],
            biases=[b.astype(np.float32) for b in model.biases],
            input_mean=model.input_mean.astype(np.float32),
            input_scale=model.input_scale.astype(np.float32),
        )
        self.penalty_blocks = self.penalty_blocks_backpropagated = 0
        self.penalty_blocks_screened = 0

    def blocks(self):
        """(columns, pass) of each penalty-grid block in turn."""
        m, width = self.grid_t.size, self.grid.n
        for lo in range(0, m, width):
            cols = slice(lo, min(lo + width, m))
            yield cols, self.grid if cols.stop - lo == width else self.tail

    def refresh(self, model: NnIvModel):
        """Copy the network's parameters into ``model32``, rounded to float32."""
        m32 = self.model32
        for dst, src in zip(
            [*m32.weights, *m32.biases, m32.input_mean, m32.input_scale],
            [*model.weights, *model.biases, model.input_mean, model.input_scale],
        ):
            np.copyto(dst, src)
        m32.sigma_lo, m32.sigma_hi = np.float32(model.sigma_lo), np.float32(model.sigma_hi)

    def screen(self, cols) -> bool:
        """Whether the float32 pass over the block at ``cols`` clears every
        hinge (``_clears_every_hinge``), for the network of the latest
        ``refresh``."""
        spass = self.grid32 if cols.stop - cols.start == self.grid32.n else self.tail32
        kappa = self.grid_kappa[cols]
        state = spass.forward(self.model32, self.grid_t32[cols], kappa)
        theta_tuple = _theta_tuple(self.model32, state)
        return _clears_every_hinge(*local_vol.calendar_butterfly_terms(*theta_tuple, kappa))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _adam_step(params, grads, moments, lr, step, beta1=0.9, beta2=0.999, eps=1e-8):
    m, v = moments
    new_params = []
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = beta1 * m[i] + (1 - beta1) * g
        v[i] = beta2 * v[i] + (1 - beta2) * g * g
        m_hat = m[i] / (1 - beta1**step)
        v_hat = v[i] / (1 - beta2**step)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
    return new_params


def _loss_and_grads(
    model, data_t, data_kappa, data_iv, w, lambdas, grid, workspace=None, with_grads=True
):
    """Total loss, components, and parameter gradients (weights then biases).

    ``workspace`` (a ``_Workspace`` for this model, data size and penalty
    grid) is built for the call when not given.  The penalty terms and their
    gradients are summed over the workspace's grid blocks in order; each
    grid point's adjoints depend on that point alone.  Without
    ``with_grads`` the backward passes are skipped and the gradients come
    back as None.
    """
    ws = workspace or _Workspace(model, data_t.size, grid)
    mu_w = float(np.mean(w))
    n = data_t.size

    # fit term and, through the adjoint on Sigma, its gradients
    state = ws.data.forward(model, data_t, data_kappa)
    rel = (state.sigma - data_iv) / data_iv
    fit = math.sqrt(float(np.mean((w * rel) ** 2)))
    grads = None
    if with_grads:
        denom = max(fit, 1e-12)
        bar_sigma_data = (w**2 * rel) / (data_iv * n * denom)
        gw_data, gb_data = state.backward(model, bar_sigma_data)
        grads = gw_data + gb_data

    # penalty terms, block by block; a block the float32 screen clears has
    # three zero hinge sums, in float64 too, and is skipped
    m_grid = ws.grid_t.size
    scale = [mu_w * v / m_grid for v in lambdas]
    sums = [0.0, 0.0, 0.0]
    ws.refresh(model)
    for cols, gpass in ws.blocks():
        screened = ws.screen(cols)
        if with_grads:
            ws.penalty_blocks += 1
            ws.penalty_blocks_screened += screened
        if screened:
            continue
        kappa = ws.grid_kappa[cols]
        gstate = gpass.forward(model, ws.grid_t[cols], kappa)
        theta_tuple = _theta_tuple(model, gstate)
        pieces = _penalty_pieces(*theta_tuple, kappa)
        _, _, cal_neg, butt_neg, _, _, _, band_excess, _ = pieces
        block_sums = [float(np.sum(v)) for v in (cal_neg, butt_neg, band_excess)]
        sums = [s + b for s, b in zip(sums, block_sums)]
        if not with_grads:
            continue
        # zero hinge sums: no active point; a NaN sum is truthy and backpropagates
        if any(block_sums):
            ws.penalty_blocks_backpropagated += 1
            block_grads = _penalty_backward(model, gstate, theta_tuple, pieces, kappa, scale)
            for acc, g in zip(grads, block_grads):
                acc += g

    means = [s / m_grid for s in sums]
    comp = {
        "fit_rmse": fit,
        "calendar_penalty": mu_w * lambdas[0] * means[0],
        "butterfly_penalty": mu_w * lambdas[1] * means[1],
        "band_penalty": mu_w * lambdas[2] * means[2],
        "mean_calendar_negative": means[0],
        "mean_butterfly_negative": means[1],
        "mean_band_excess": means[2],
    }
    total = fit + comp["calendar_penalty"] + comp["butterfly_penalty"] + comp["band_penalty"]
    return total, comp, grads


def _penalty_backward(model, gstate, theta_tuple, pieces, kap, scale):
    """Parameter gradients of the penalty terms on one grid block.

    ``scale`` holds mu_w lambda_i / m for the three terms, m being the
    whole grid's size.
    """
    theta, d_t, d_k, d_kk = theta_tuple
    cal, butt, _, _, ratio, above, below, _, usable = pieces

    # adjoints of the penalty terms on (cal, butt)
    bar_cal = np.where(cal < 0.0, -scale[0], 0.0)
    bar_butt = np.where(butt < 0.0, -scale[1], 0.0)
    band_sign = np.where(above, 1.0, 0.0) - np.where(below, 1.0, 0.0)
    safe_butt = np.where(usable, butt, 1.0)
    bar_cal = bar_cal + np.where(usable, scale[2] * band_sign / safe_butt, 0.0)
    bar_butt = bar_butt + np.where(usable, -scale[2] * band_sign * ratio / safe_butt, 0.0)

    # chain (cal, butt) adjoints into (Theta, dT, dk, dkk) adjoints
    bar_theta = bar_butt * (
        (kap / theta**2) * d_k + 0.25 * (1.0 / theta**2 - 2.0 * kap**2 / theta**3) * d_k**2
    )
    bar_dt = bar_cal
    bar_dk = bar_butt * (-kap / theta + 0.5 * (-0.25 - 1.0 / theta + kap**2 / theta**2) * d_k)
    bar_dkk = bar_butt * 0.5

    # and into the Sigma streams
    s_t, s_k = model.input_scale[0], model.input_scale[1]
    sig = gstate.sigma
    sp, sq, sr = gstate.sigma_streams
    t_arr = gstate.t
    bar_sig = (
        bar_theta * 2.0 * sig * t_arr
        + bar_dt * (2.0 * sig + 2.0 * sr / s_t)
        + bar_dk * 2.0 * t_arr * sp / s_k
        + bar_dkk * 2.0 * t_arr * sq / s_k**2
    )
    bar_sp = bar_dk * 2.0 * t_arr * sig / s_k + bar_dkk * 4.0 * t_arr * sp / s_k**2
    bar_sq = bar_dkk * 2.0 * t_arr * sig / s_k**2
    bar_sr = bar_dt * 2.0 * sig / s_t
    gw, gb = gstate.backward(model, bar_sig, (bar_sp, bar_sq, bar_sr))
    return gw + gb


def _train_once(frame_t, frame_kappa, frame_iv, w, lambdas, grid, seed, spot, epochs):
    """One training run: (model, history, (total, components), best epoch,
    (penalty-grid blocks the epochs visited, blocks they backpropagated,
    blocks the float32 screen cleared)).

    The network has HIDDEN layers and Adam takes LEARNING_RATE steps.  The
    model holds the parameters the best epoch scored, before its Adam step.
    With no epochs the best epoch is 0 and the initial network is scored.
    """
    start = float(np.clip(np.mean(frame_iv), 0.05, 1.5))
    model = NnIvModel.initialize(seed=seed, hidden=HIDDEN, spot=spot, start_sigma=start)
    log_t = np.log(frame_t)
    model.input_mean = np.array([float(np.mean(log_t)), float(np.mean(frame_kappa))])
    model.input_scale = np.array(
        [max(float(np.std(log_t)), 1e-8), max(float(np.std(frame_kappa)), 1e-8)]
    )

    flat = model.weights + model.biases
    moments = ([np.zeros_like(p) for p in flat], [np.zeros_like(p) for p in flat])
    best_total = np.inf
    best_params = None
    best_epoch = 0
    history = []
    workspace = _Workspace(model, frame_t.size, grid)

    for epoch in range(1, epochs + 1):
        total, comp, grads = _loss_and_grads(
            model, frame_t, frame_kappa, frame_iv, w, lambdas, grid, workspace
        )
        if not np.isfinite(total):
            raise TrainingError(f"loss diverged at epoch {epoch}", epoch)
        if total < best_total:
            best_total = total
            best_score = (total, comp)
            best_epoch = epoch
            best_params = ([w.copy() for w in model.weights], [b.copy() for b in model.biases])

        flat = model.weights + model.biases
        flat = _adam_step(flat, grads, moments, LEARNING_RATE, epoch)
        n_w = len(model.weights)
        model.weights = flat[:n_w]
        model.biases = flat[n_w:]
        history.append({
            "epoch": epoch, "total": total, "fit": comp["fit_rmse"],
            "cal": comp["calendar_penalty"], "butt": comp["butterfly_penalty"],
            "band": comp["band_penalty"],
        })

    if best_params is None:
        total, comp, _ = _loss_and_grads(
            model, frame_t, frame_kappa, frame_iv, w, lambdas, grid, workspace, with_grads=False
        )
        best_score = (total, comp)
    else:
        model.weights, model.biases = best_params
    blocks = (workspace.penalty_blocks, workspace.penalty_blocks_backpropagated,
              workspace.penalty_blocks_screened)
    return model, history, best_score, best_epoch, blocks


def _observations(frame: MarketFrame):
    """Distinct (T, kappa) points in sorted order with their mean mid IVs.

    Returns (T, kappa, iv, number of duplicate points collapsed).  Points
    with equal (T, kappa) form one group; each mean is taken in frame order.
    """
    order = np.lexsort((frame.log_moneyness, frame.maturity))
    t = frame.maturity[order]
    kappa = frame.log_moneyness[order]
    iv = frame.mid_iv[order]
    first = np.ones(t.size, dtype=bool)
    first[1:] = (t[1:] != t[:-1]) | (kappa[1:] != kappa[:-1])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], t.size)
    mean_iv = iv[starts]
    for group in np.flatnonzero(ends - starts > 1):
        mean_iv[group] = np.mean(iv[starts[group]:ends[group]])
    return t[starts], kappa[starts], mean_iv, int(t.size - starts.size)


def train(
    frame: MarketFrame,
    epochs: int = 3000,
    lambdas: tuple = (1.0, 1.0, 1.0),
    penalty_grid: tuple = (50, 100),
    lambda_search: bool = False,
    seed: int = 0,
):
    """Train the IV network on a frame's mid implied volatilities.

    ``lambdas`` are the three penalty strengths and ``penalty_grid`` the
    (maturity, moneyness) node counts of the penalty grid, which is built
    once for every run of the call.  Duplicate (T, kappa) observations are
    collapsed to their mean IV.  With ``lambda_search``, each triple of
    LAMBDA_CANDIDATES trains for SEARCH_EPOCHS with seed + its index,
    candidates whose arbitrage penalties vanish on the grid are ranked by fit
    RMSE (falling back to total loss when none are clean), and the winner
    replaces ``lambdas`` for the full budget.  Returns (model, report).
    """
    if epochs < 0:
        raise ValueError("epochs must be nonnegative")
    if len(lambdas) != 3 or not all(np.isfinite(v) and v >= 0 for v in lambdas):
        raise ValueError("lambdas must be three finite nonnegative numbers")
    grid = build_penalty_grid(*penalty_grid)
    data_t, data_kappa, data_iv, n_dupes = _observations(frame)
    if n_dupes:
        log.warning("collapsed %d duplicate observation points to mean IV", n_dupes)
    if data_t.size < 2:
        raise ValueError("need at least two distinct observation points")
    w = compute_weights(np.column_stack([data_t, data_kappa]))
    spot = frame.curves.spot

    search_summary = []
    if lambda_search:
        ranked = []
        for idx, lam in enumerate(LAMBDA_CANDIDATES):
            _, _, (_, comp), _, _ = _train_once(
                data_t, data_kappa, data_iv, w, lam, grid,
                seed=seed + idx, spot=spot, epochs=SEARCH_EPOCHS,
            )
            clean = (
                comp["mean_calendar_negative"] <= 1e-12
                and comp["mean_butterfly_negative"] <= 1e-12
            )
            total = comp["fit_rmse"] + comp["calendar_penalty"] + comp["butterfly_penalty"]
            ranked.append((not clean, comp["fit_rmse"] if clean else total, lam))
            search_summary.append(
                {"lambdas": list(lam), "clean": clean, "fit_rmse": comp["fit_rmse"]}
            )
        ranked.sort()
        lambdas = ranked[0][2]

    model, history, (total, comp), best_epoch, blocks = _train_once(
        data_t, data_kappa, data_iv, w, lambdas, grid, seed=seed, spot=spot, epochs=epochs,
    )
    report = {
        "final_total": total,
        "components": comp,
        "lambdas": list(lambdas),
        "epochs": epochs,
        "best_epoch": best_epoch,
        "penalty_blocks": blocks[0],
        "penalty_blocks_backpropagated": blocks[1],
        "penalty_blocks_screened": blocks[2],
        "n_observations": int(data_t.size),
        "duplicates_collapsed": n_dupes,
        "lambda_search": search_summary,
        "history": history,
    }
    return model, report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def model_to_json(model: NnIvModel) -> dict:
    return {
        "version": "nnivmodel/1",
        "hidden": [w.shape[0] for w in model.weights[:-1]],
        "weights": [w.ravel().tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "input_mean": model.input_mean.tolist(),
        "input_scale": model.input_scale.tolist(),
        "sigma_lo": model.sigma_lo,
        "sigma_hi": model.sigma_hi,
        "spot": model.spot,
    }


def model_from_json(doc: dict) -> NnIvModel:
    if doc.get("version") != "nnivmodel/1":
        raise ValueError(f"unsupported NN model version {doc.get('version')!r}")
    sizes = [2, *doc["hidden"], 1]
    if len(doc["weights"]) != len(sizes) - 1 or len(doc["biases"]) != len(sizes) - 1:
        raise ValueError("layer count does not match the hidden sizes")
    weights = [number_array(w).reshape(fan_out, fan_in)
               for w, fan_in, fan_out in zip(doc["weights"], sizes[:-1], sizes[1:])]
    biases = [number_array(b).reshape(fan_out) for b, fan_out in zip(doc["biases"], sizes[1:])]
    return NnIvModel(
        weights=weights,
        biases=biases,
        input_mean=number_array(doc["input_mean"]).reshape(2),
        input_scale=number_array(doc["input_scale"]).reshape(2),
        sigma_lo=number(doc["sigma_lo"]),
        sigma_hi=number(doc["sigma_hi"]),
        spot=number(doc["spot"]),
    )
