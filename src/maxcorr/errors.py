"""Semantic exception hierarchy shared by all maxcorr modules.

Errors split into two families: contract violations on inputs
(``ValidationError``, a ``ValueError``) and domain failures discovered
during computation (plain ``MaxcorrError`` subclasses).
"""


class MaxcorrError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MaxcorrError, ValueError):
    """An input violates a documented contract."""


# --- distribution / marginal inputs ---


class NegativeProbability(ValidationError):
    """A probability entry is negative."""


class NotNormalized(ValidationError):
    """A probability table does not sum to one within tolerance."""


class DuplicateEntry(ValidationError):
    """The same (x, y) cell was specified twice."""


class LabelOutOfRange(ValidationError):
    """A categorical label lies outside {0..m-1} (or {0,1} for y)."""


class InvalidEpsilon(ValidationError):
    """Perturbation radius is negative."""


class AtomCapExceeded(ValidationError):
    """A dense array over its cap: a joint table over ``ATOM_CAP`` cells, or Q over ``Q_CAP``."""


class InconsistentMarginals(ValidationError):
    """A pairwise marginal set fails a necessary realizability condition."""


# --- linear algebra / optimization kernel ---


class NonFinite(ValidationError):
    """Matrix or vector contains NaN or infinity."""


class NotSymmetric(ValidationError):
    """A symmetric matrix was required."""


class DimensionMismatch(ValidationError):
    """Operand shapes are incompatible."""


class LpFailure(MaxcorrError):
    """The linear-program solver failed to produce a usable status."""


# --- lower bound / tightness ---


class DInconsistentWithQ(MaxcorrError):
    """Linear term lies outside the column space of the quadratic form;
    the marginal class is empty or the input is corrupted."""


class DegenerateY(MaxcorrError):
    """P(Y=1) is 0 or 1; correlation functionals are undefined."""


class HConstraintViolated(MaxcorrError):
    """Certificate vector violates the per-block max bounds needed for a
    valid conditional probability."""


class MarginalMismatch(MaxcorrError):
    """Base distribution does not carry the expected pairwise marginals."""


class NotStationary(MaxcorrError):
    """Vector is not a minimizer of the quadratic objective."""


# --- correlation oracles / moments ---


class ZeroVariance(MaxcorrError):
    """A numeric embedding has zero variance; Pearson is undefined."""


class InconsistentMoments(MaxcorrError):
    """First/second moments are not realizable by any distribution."""


class InvalidRho(ValidationError):
    """Correlation parameter outside (-1, 1)."""
