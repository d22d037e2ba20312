"""Reference models: the textbook log-likelihood, score and information of both stages, for stats._fit.

stats._fit takes `model(X, y)`, three functions: loglik(theta) returns the
log-likelihood and the point the other two take (stats' models hand over the
fitted probabilities). These return theta itself as their point, so each
function computes its value from the coefficients alone, as the formulas are
written: the linear predictor and the probabilities are recomputed by every
call, and nothing is kept between calls or shared between the three.

Each value is computed with the same floating-point operations as stats'
models, so a fit through these must equal stats' fit bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, logsumexp


def reference_binary(X: np.ndarray, y: np.ndarray):
    """Bernoulli: p = expit(X b); ll = sum(y eta - log(1 + e^eta)); score X'(y - p); information X' diag(p (1 - p)) X."""

    def loglik(beta: np.ndarray) -> tuple[float, np.ndarray]:
        eta = X @ beta
        return float(np.sum(y * eta - np.logaddexp(0.0, eta))), beta

    def score(beta: np.ndarray) -> np.ndarray:
        return X.T @ (y - expit(X @ beta))

    def information(beta: np.ndarray) -> np.ndarray:
        p = expit(X @ beta)
        return X.T @ ((p * (1.0 - p))[:, None] * X)

    return loglik, score, information


def reference_multinomial(X: np.ndarray, y: np.ndarray):
    """Baseline-category logit, class 0 the reference: eta_0 = 0 and eta_c = X b_c, p = softmax(eta).

    ll = sum(eta_y - log sum_c e^eta_c); the score's block c is X'(1[y = c] - p_c)
    and the information's block (c, d) is X' diag(p_c (1[c = d] - p_d)) X.
    """
    n, k = X.shape

    def logits(theta: np.ndarray) -> np.ndarray:
        return np.column_stack([np.zeros(n), X @ theta.reshape(-1, k).T])

    def probs(theta: np.ndarray) -> np.ndarray:
        eta = logits(theta)
        e = np.exp(eta - eta.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def loglik(theta: np.ndarray) -> tuple[float, np.ndarray]:
        eta = logits(theta)
        return float(np.sum(eta[np.arange(n), y] - logsumexp(eta, axis=1))), theta

    def score(theta: np.ndarray) -> np.ndarray:
        p = probs(theta)
        return np.concatenate([X.T @ ((y == c) - p[:, c]) for c in range(1, p.shape[1])])

    def information(theta: np.ndarray) -> np.ndarray:
        p = probs(theta)
        classes = range(1, p.shape[1])
        return np.block([[X.T @ ((p[:, c] * ((c == d) - p[:, d]))[:, None] * X) for d in classes] for c in classes])

    return loglik, score, information


def one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    """The (rows, n_classes) count matrix of one outcome code per row: a 1.0 in each row's class column."""
    return np.eye(n_classes)[np.asarray(y, dtype=np.int64)]
