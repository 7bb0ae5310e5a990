//! Token definitions for the OIL lexer.

use crate::span::Span;
use oil_dataflow::Rational;
use std::fmt::{self, Write as _};

/// The different kinds of tokens produced by the [`lexer`](crate::lexer).
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    // ---- keywords (Fig. 5 of the paper) ----
    /// `mod`
    Mod,
    /// `par`
    Par,
    /// `seq`
    Seq,
    /// `fifo`
    Fifo,
    /// `source`
    Source,
    /// `sink`
    Sink,
    /// `start`
    Start,
    /// `after`
    After,
    /// `before`
    Before,
    /// `out`
    Out,
    /// `if`
    If,
    /// `else`
    Else,
    /// `switch`
    Switch,
    /// `case`
    Case,
    /// `default`
    Default,
    /// `loop`
    Loop,
    /// `while`
    While,

    // ---- literals and identifiers ----
    /// An identifier: module names, function names, variables, streams, types.
    Ident(String),
    /// An integer literal that fits `i64`.
    Int(i64),
    /// Any other number literal (e.g. `6.4` in `6.4 MHz`), read exactly.
    Decimal(Decimal),

    // ---- punctuation ----
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `=`
    Assign,
    /// `@`
    At,
    /// `||` or the Unicode `‖` used in the paper: parallel composition.
    ParallelBar,
    /// `*`
    Star,
    /// `/` or `\` (the paper's Fig. 5 uses `\` for division)
    Slash,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `!`
    Not,
    /// `...` — the paper writes `if(...)` for an unspecified data-dependent
    /// condition; we accept it as an opaque condition literal.
    Ellipsis,

    /// End of input.
    Eof,
}

impl TokenKind {
    /// True for tokens that may start an expression.
    pub fn starts_expression(&self) -> bool {
        matches!(
            self,
            TokenKind::Ident(_)
                | TokenKind::Int(_)
                | TokenKind::Decimal(_)
                | TokenKind::LParen
                | TokenKind::Minus
                | TokenKind::Not
                | TokenKind::Ellipsis
        )
    }

    /// If the token is a keyword, return its textual form.
    pub fn keyword_str(&self) -> Option<&'static str> {
        Some(match self {
            TokenKind::Mod => "mod",
            TokenKind::Par => "par",
            TokenKind::Seq => "seq",
            TokenKind::Fifo => "fifo",
            TokenKind::Source => "source",
            TokenKind::Sink => "sink",
            TokenKind::Start => "start",
            TokenKind::After => "after",
            TokenKind::Before => "before",
            TokenKind::Out => "out",
            TokenKind::If => "if",
            TokenKind::Else => "else",
            TokenKind::Switch => "switch",
            TokenKind::Case => "case",
            TokenKind::Default => "default",
            TokenKind::Loop => "loop",
            TokenKind::While => "while",
            _ => return None,
        })
    }

    /// Look up a keyword by its textual form.
    pub fn keyword_from_str(s: &str) -> Option<TokenKind> {
        Some(match s {
            "mod" => TokenKind::Mod,
            "par" => TokenKind::Par,
            "seq" => TokenKind::Seq,
            "fifo" => TokenKind::Fifo,
            "source" => TokenKind::Source,
            "sink" => TokenKind::Sink,
            "start" => TokenKind::Start,
            "after" => TokenKind::After,
            "before" => TokenKind::Before,
            "out" => TokenKind::Out,
            "if" => TokenKind::If,
            "else" => TokenKind::Else,
            "switch" => TokenKind::Switch,
            "case" => TokenKind::Case,
            "default" => TokenKind::Default,
            "loop" => TokenKind::Loop,
            "while" => TokenKind::While,
            _ => return None,
        })
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(kw) = self.keyword_str() {
            return write!(f, "`{kw}`");
        }
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Int(n) => write!(f, "integer `{n}`"),
            TokenKind::Decimal(x) => write!(f, "number `{x}`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::Semicolon => write!(f, "`;`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Assign => write!(f, "`=`"),
            TokenKind::At => write!(f, "`@`"),
            TokenKind::ParallelBar => write!(f, "`||`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Eq => write!(f, "`==`"),
            TokenKind::Ne => write!(f, "`!=`"),
            TokenKind::Lt => write!(f, "`<`"),
            TokenKind::Le => write!(f, "`<=`"),
            TokenKind::Gt => write!(f, "`>`"),
            TokenKind::Ge => write!(f, "`>=`"),
            TokenKind::AndAnd => write!(f, "`&&`"),
            TokenKind::Not => write!(f, "`!`"),
            TokenKind::Ellipsis => write!(f, "`...`"),
            TokenKind::Eof => write!(f, "end of input"),
            _ => unreachable!("keyword handled above"),
        }
    }
}

/// A number literal read exactly: `mantissa · 10^exponent`, the mantissa
/// without trailing zeros, so equal values are equal literals (`6.40` is
/// `64 · 10⁻¹`, `4100` is `41 · 10²`). No `f64` is involved in reading one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decimal {
    /// The significant digits.
    pub mantissa: u128,
    /// The power of ten scaling them.
    pub exponent: i64,
}

impl Decimal {
    /// `mantissa · 10^exponent`, normalised.
    pub fn new(mut mantissa: u128, mut exponent: i64) -> Self {
        if mantissa == 0 {
            return Decimal {
                mantissa,
                exponent: 0,
            };
        }
        while mantissa.is_multiple_of(10) {
            mantissa /= 10;
            exponent += 1;
        }
        Decimal { mantissa, exponent }
    }

    /// The value times `10^shift` as an exact rational, or `None` when no
    /// `i128` fraction holds it. This is the front end's one
    /// representability check: a unit suffix is a `shift`, so the check
    /// sees the value in the unit the analyses compute with (Hz, seconds).
    pub fn to_rational(self, shift: i64) -> Option<Rational> {
        let exponent = self.exponent.checked_add(shift)?;
        let pow = |base: u128, k: u64| base.checked_pow(u32::try_from(k).ok()?);
        let (mut num, mut den) = (self.mantissa, 1);
        if exponent >= 0 {
            num = num.checked_mul(pow(10, exponent.unsigned_abs())?)?;
        } else {
            // Cancel the 2s and 5s the mantissa shares with 10^-exponent
            // first, so that no reduced fraction that fits is missed.
            let (mut twos, mut fives) = (exponent.unsigned_abs(), exponent.unsigned_abs());
            while twos > 0 && num.is_multiple_of(2) {
                num /= 2;
                twos -= 1;
            }
            while fives > 0 && num.is_multiple_of(5) {
                num /= 5;
                fives -= 1;
            }
            den = pow(2, twos)?.checked_mul(pow(5, fives)?)?;
        }
        Rational::checked_new(i128::try_from(num).ok()?, i128::try_from(den).ok()?)
    }

    /// The decimal equal to a non-negative rational, if its expansion
    /// terminates (its denominator has no prime factor but 2 and 5) and its
    /// digits fit the mantissa; the inverse of [`Self::to_rational`].
    pub fn from_rational(r: Rational) -> Option<Decimal> {
        let num = u128::try_from(r.numer()).ok()?;
        let mut den = r.denom().unsigned_abs();
        let (mut twos, mut fives) = (0u32, 0u32);
        while den.is_multiple_of(2) {
            den /= 2;
            twos += 1;
        }
        while den.is_multiple_of(5) {
            den /= 5;
            fives += 1;
        }
        if den != 1 {
            return None;
        }
        let k = twos.max(fives);
        let mantissa = num
            .checked_mul(2u128.checked_pow(k - twos)?)?
            .checked_mul(5u128.checked_pow(k - fives)?)?;
        Some(Decimal::new(mantissa, -i64::from(k)))
    }

    /// The nearest `f64`, for expression values (which keep `f64`
    /// semantics). Correctly rounded: one rounding of exact operands on the
    /// common path, the standard library's parser otherwise.
    pub fn to_f64(self) -> f64 {
        const EXACT: [f64; 23] = [
            1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
            1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
        ];
        match EXACT.get(self.exponent.unsigned_abs() as usize) {
            Some(&p) if self.mantissa < 1 << 53 => {
                let m = self.mantissa as f64;
                if self.exponent < 0 {
                    m / p
                } else {
                    m * p
                }
            }
            _ => format!("{}e{}", self.mantissa, self.exponent)
                .parse()
                .expect("scientific notation parses as f64"),
        }
    }
}

impl fmt::Display for Decimal {
    /// Plain positional notation, the form the lexer reads back.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = self.mantissa.to_string();
        if self.exponent >= 0 {
            f.write_str(&digits)?;
            (0..self.exponent).try_for_each(|_| f.write_char('0'))
        } else {
            let point = digits.len() as i64 + self.exponent;
            if point > 0 {
                let (int, frac) = digits.split_at(point as usize);
                write!(f, "{int}.{frac}")
            } else {
                f.write_str("0.")?;
                (point..0).try_for_each(|_| f.write_char('0'))?;
                f.write_str(&digits)
            }
        }
    }
}

/// A token together with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where it appears in the source text.
    pub span: Span,
}

impl Token {
    /// Construct a token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }

    /// True if the token marks the end of input.
    pub fn is_eof(&self) -> bool {
        self.kind == TokenKind::Eof
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for kw in [
            "mod", "par", "seq", "fifo", "source", "sink", "start", "after", "before", "out", "if",
            "else", "switch", "case", "default", "loop", "while",
        ] {
            let tok = TokenKind::keyword_from_str(kw).expect("known keyword");
            assert_eq!(tok.keyword_str(), Some(kw));
        }
        assert_eq!(TokenKind::keyword_from_str("module"), None);
    }

    #[test]
    fn expression_starters() {
        assert!(TokenKind::Ident("x".into()).starts_expression());
        assert!(TokenKind::Int(3).starts_expression());
        assert!(TokenKind::Minus.starts_expression());
        assert!(TokenKind::Ellipsis.starts_expression());
        assert!(!TokenKind::Semicolon.starts_expression());
        assert!(!TokenKind::Out.starts_expression());
    }

    #[test]
    fn display_is_reasonable() {
        assert_eq!(TokenKind::Mod.to_string(), "`mod`");
        assert_eq!(
            TokenKind::Ident("foo".into()).to_string(),
            "identifier `foo`"
        );
        assert_eq!(TokenKind::ParallelBar.to_string(), "`||`");
        assert_eq!(TokenKind::Eof.to_string(), "end of input");
    }
}
