//! Data tokens exchanged through relations.
//!
//! Performance models do not carry functional data — a token records only
//! what influences timing: its **size** (the paper's "varying data size
//! associated" with each exchange) and the iteration index it belongs to.

/// A data token: the payload type carried by every model channel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Token {
    /// Abstract data size (e.g. bytes or samples); drives data-dependent
    /// execution durations.
    pub size: u64,
    /// Iteration index `k` of the producing source, for diagnostics.
    pub k: u64,
}

impl Token {
    /// Creates a token of the given size for iteration `k`.
    pub fn new(size: u64, k: u64) -> Self {
        Token { size, k }
    }
}

impl core::fmt::Display for Token {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "token(k={}, size={})", self.k, self.size)
    }
}

/// How a function transforms the size of the data it forwards.
///
/// The interpreter applies the model to the size of the most recent token
/// read in the current iteration to obtain the size of tokens it writes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SizeModel {
    /// Output size equals the last input size (pure forwarding).
    #[default]
    Same,
    /// Output size is fixed.
    Constant(u64),
    /// Output size is `input * numerator / denominator` (e.g. a decoder
    /// expanding or a compressor shrinking data).
    Scaled {
        /// Multiplier applied to the input size.
        numerator: u64,
        /// Divisor applied after multiplication (must be nonzero).
        denominator: u64,
    },
}

impl SizeModel {
    /// The output size for a given input size.
    ///
    /// # Panics
    ///
    /// Panics if a [`SizeModel::Scaled`] has a zero denominator.
    #[inline]
    pub fn apply(self, input: u64) -> u64 {
        match self {
            SizeModel::Same => input,
            SizeModel::Constant(n) => n,
            SizeModel::Scaled {
                numerator,
                denominator,
            } => {
                assert!(denominator != 0, "scaled size model with zero denominator");
                input.saturating_mul(numerator) / denominator
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_models() {
        assert_eq!(SizeModel::Same.apply(10), 10);
        assert_eq!(SizeModel::Constant(3).apply(10), 3);
        assert_eq!(
            SizeModel::Scaled {
                numerator: 3,
                denominator: 2
            }
            .apply(10),
            15
        );
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_rejected() {
        let _ = SizeModel::Scaled {
            numerator: 1,
            denominator: 0,
        }
        .apply(1);
    }

    #[test]
    fn token_display() {
        assert_eq!(Token::new(5, 2).to_string(), "token(k=2, size=5)");
    }
}
