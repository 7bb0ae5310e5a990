//! Hand-written lexer for OIL source text.
//!
//! The lexer recognises the core syntax of the paper's Figure 5 plus the
//! notational conveniences used by the paper's own program listings: `//` and
//! `/* */` comments, the Unicode parallel bar `‖`, the `...` placeholder
//! condition and fractional frequency values such as `6.4` (as in
//! `@ 6.4 MHz`), which it reads as exact decimals.

use crate::span::{Diagnostic, Span};
use crate::token::{Decimal, Token, TokenKind};

/// Converts OIL source text into a token stream.
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    column: u32,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            column: 1,
        }
    }

    /// Tokenise the whole input. The returned vector always ends with an
    /// [`TokenKind::Eof`] token.
    pub fn tokenize(mut self) -> Result<Vec<Token>, Diagnostic> {
        let mut tokens = Vec::new();
        loop {
            let tok = self.next_token()?;
            let eof = tok.is_eof();
            tokens.push(tok);
            if eof {
                break;
            }
        }
        Ok(tokens)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(b)
    }

    fn span_from(&self, start: usize, line: u32, column: u32) -> Span {
        Span::new(start, self.pos, line, column)
    }

    fn skip_trivia(&mut self) -> Result<(), Diagnostic> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let (start, line, column) = (self.pos, self.line, self.column);
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(Diagnostic::error(
                                    "unterminated block comment",
                                    self.span_from(start, line, column),
                                ))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, Diagnostic> {
        self.skip_trivia()?;
        let (start, line, column) = (self.pos, self.line, self.column);
        let Some(b) = self.peek() else {
            return Ok(Token::new(
                TokenKind::Eof,
                self.span_from(start, line, column),
            ));
        };

        // Unicode parallel bar `‖` (U+2016, UTF-8 e2 80 96).
        if b == 0xe2 && self.src[self.pos..].starts_with('\u{2016}') {
            for _ in 0..'\u{2016}'.len_utf8() {
                self.bump();
            }
            return Ok(Token::new(
                TokenKind::ParallelBar,
                self.span_from(start, line, column),
            ));
        }

        if b.is_ascii_alphabetic() || b == b'_' {
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == b'_' {
                    self.bump();
                } else {
                    break;
                }
            }
            let text = &self.src[start..self.pos];
            let kind = TokenKind::keyword_from_str(text)
                .unwrap_or_else(|| TokenKind::Ident(text.to_string()));
            return Ok(Token::new(kind, self.span_from(start, line, column)));
        }

        if b.is_ascii_digit() {
            return self.number(start, line, column);
        }

        // Punctuation.
        let kind = match b {
            b'(' => {
                self.bump();
                TokenKind::LParen
            }
            b')' => {
                self.bump();
                TokenKind::RParen
            }
            b'{' => {
                self.bump();
                TokenKind::LBrace
            }
            b'}' => {
                self.bump();
                TokenKind::RBrace
            }
            b'[' => {
                self.bump();
                TokenKind::LBracket
            }
            b']' => {
                self.bump();
                TokenKind::RBracket
            }
            b';' => {
                self.bump();
                TokenKind::Semicolon
            }
            b',' => {
                self.bump();
                TokenKind::Comma
            }
            b':' => {
                self.bump();
                TokenKind::Colon
            }
            b'@' => {
                self.bump();
                TokenKind::At
            }
            b'*' => {
                self.bump();
                TokenKind::Star
            }
            b'/' | b'\\' => {
                self.bump();
                TokenKind::Slash
            }
            b'+' => {
                self.bump();
                TokenKind::Plus
            }
            b'-' => {
                self.bump();
                TokenKind::Minus
            }
            b'=' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Eq
                } else {
                    TokenKind::Assign
                }
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Ne
                } else {
                    TokenKind::Not
                }
            }
            b'<' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Le
                } else {
                    TokenKind::Lt
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            b'&' if self.peek2() == Some(b'&') => {
                self.bump();
                self.bump();
                TokenKind::AndAnd
            }
            b'|' if self.peek2() == Some(b'|') => {
                self.bump();
                self.bump();
                TokenKind::ParallelBar
            }
            b'.' if self.peek2() == Some(b'.') => {
                self.bump();
                self.bump();
                if self.peek() == Some(b'.') {
                    self.bump();
                }
                TokenKind::Ellipsis
            }
            other => {
                let ch = self.src[self.pos..].chars().next().unwrap_or(other as char);
                return Err(Diagnostic::error(
                    format!("unexpected character `{ch}`"),
                    self.span_from(start, line, column),
                ));
            }
        };
        Ok(Token::new(kind, self.span_from(start, line, column)))
    }

    /// A number literal, read exactly: its significant digits go into a
    /// `u128`, its trailing zeros and fraction digits into a power of ten.
    fn number(&mut self, start: usize, line: u32, column: u32) -> Result<Token, Diagnostic> {
        let (mut mantissa, mut zeros, mut fraction_digits) = (0u128, 0u32, 0i64);
        let (mut fraction, mut overflow) = (false, false);
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.bump();
                fraction_digits += i64::from(fraction);
                if c == b'0' {
                    zeros += 1;
                    continue;
                }
                let digit = u128::from(c - b'0');
                let digits = match mantissa {
                    0 => Some(digit),
                    m => 10u128
                        .checked_pow(zeros + 1)
                        .and_then(|scale| m.checked_mul(scale))
                        .and_then(|m| m.checked_add(digit)),
                };
                mantissa = digits.unwrap_or_else(|| {
                    overflow = true;
                    0
                });
                zeros = 0;
            } else if c == b'_' {
                self.bump();
            } else if c == b'.'
                && !fraction
                && self.peek2().map(|d| d.is_ascii_digit()).unwrap_or(false)
            {
                fraction = true;
                self.bump();
            } else {
                break;
            }
        }
        let span = self.span_from(start, line, column);
        if overflow {
            return Err(Diagnostic::error(
                format!(
                    "number literal `{}` has more significant digits than an exact \
                     rational holds",
                    &self.src[start..self.pos]
                ),
                span,
            ));
        }
        let value = Decimal::new(mantissa, i64::from(zeros) - fraction_digits);
        let int = (value.exponent >= 0)
            .then(|| 10u128.checked_pow(u32::try_from(value.exponent).ok()?))
            .flatten()
            .and_then(|scale| i64::try_from(value.mantissa.checked_mul(scale)?).ok());
        let kind = match int {
            Some(n) if !fraction => TokenKind::Int(n),
            _ => TokenKind::Decimal(value),
        };
        Ok(Token::new(kind, span))
    }
}

/// Tokenise `src`, returning the token stream or the first lexical error.
pub fn tokenize(src: &str) -> Result<Vec<Token>, Diagnostic> {
    Lexer::new(src).tokenize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_module_header() {
        let k = kinds("mod seq A(out int a, int b){");
        assert_eq!(
            k,
            vec![
                TokenKind::Mod,
                TokenKind::Seq,
                TokenKind::Ident("A".into()),
                TokenKind::LParen,
                TokenKind::Out,
                TokenKind::Ident("int".into()),
                TokenKind::Ident("a".into()),
                TokenKind::Comma,
                TokenKind::Ident("int".into()),
                TokenKind::Ident("b".into()),
                TokenKind::RParen,
                TokenKind::LBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_colon_rate_and_slice() {
        let k = kinds("f(out x:3, y[0:2]);");
        assert!(k.contains(&TokenKind::Colon));
        assert!(k.contains(&TokenKind::LBracket));
        assert!(k.contains(&TokenKind::Int(3)));
    }

    #[test]
    fn lex_parallel_bars() {
        let k = kinds("A(out x, y) || B(out y, x)");
        assert_eq!(
            k.iter().filter(|t| **t == TokenKind::ParallelBar).count(),
            1
        );
        let k2 = kinds("A(out x, y) \u{2016} B(out y, x)");
        assert_eq!(
            k2.iter().filter(|t| **t == TokenKind::ParallelBar).count(),
            1
        );
    }

    #[test]
    fn lex_frequency_and_latency() {
        let k = kinds("source sample rf = receiveRF() @ 6.4 MHz; start x 5 ms before y;");
        assert!(k.contains(&TokenKind::Source));
        assert!(k.contains(&TokenKind::At));
        assert!(k.contains(&TokenKind::Decimal(Decimal::new(64, -1))));
        assert!(k.contains(&TokenKind::Ident("MHz".into())));
        assert!(k.contains(&TokenKind::Start));
        assert!(k.contains(&TokenKind::Before));
        assert!(k.contains(&TokenKind::Int(5)));
    }

    #[test]
    fn lex_comments() {
        let k = kinds("x = 1; // trailing comment\n/* block\ncomment */ y = 2;");
        assert_eq!(
            k.iter()
                .filter(|t| matches!(t, TokenKind::Ident(_)))
                .count(),
            2
        );
        assert_eq!(
            k.iter().filter(|t| matches!(t, TokenKind::Int(_))).count(),
            2
        );
    }

    #[test]
    fn lex_operators_and_comparisons() {
        let k = kinds("a == b != c <= d >= e < f > g && !h");
        assert!(k.contains(&TokenKind::Eq));
        assert!(k.contains(&TokenKind::Ne));
        assert!(k.contains(&TokenKind::Le));
        assert!(k.contains(&TokenKind::Ge));
        assert!(k.contains(&TokenKind::Lt));
        assert!(k.contains(&TokenKind::Gt));
        assert!(k.contains(&TokenKind::AndAnd));
        assert!(k.contains(&TokenKind::Not));
    }

    #[test]
    fn lex_ellipsis_condition() {
        let k = kinds("if(...) { y = g(); }");
        assert!(k.contains(&TokenKind::Ellipsis));
        // Two dots also accepted as the placeholder.
        let k2 = kinds("while(..)");
        assert!(k2.contains(&TokenKind::Ellipsis));
    }

    #[test]
    fn lex_backslash_division() {
        let k = kinds("a \\ b / c");
        assert_eq!(k.iter().filter(|t| **t == TokenKind::Slash).count(), 2);
    }

    #[test]
    fn lex_unterminated_block_comment_is_error() {
        assert!(tokenize("/* never closed").is_err());
    }

    #[test]
    fn lex_unexpected_character_is_error() {
        let err = tokenize("x = #3;").unwrap_err();
        assert!(err.message.contains('#'));
    }

    #[test]
    fn spans_track_lines() {
        let toks = tokenize("a\n  b\nc").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.column, 3);
        assert_eq!(toks[2].span.line, 3);
    }

    #[test]
    fn underscores_in_numbers() {
        let k = kinds("6_400_000");
        assert_eq!(k[0], TokenKind::Int(6_400_000));
    }

    #[test]
    fn number_literals_are_exact_decimals() {
        let k = kinds(
            "6.40000000000000000001 4.1 0.00000000000000000000000000000000000000000000000001 \
             6.40 100000000000000000000",
        );
        assert_eq!(
            k[..5],
            [
                TokenKind::Decimal(Decimal::new(640_000_000_000_000_000_001, -20)),
                TokenKind::Decimal(Decimal::new(41, -1)),
                TokenKind::Decimal(Decimal::new(1, -50)),
                TokenKind::Decimal(Decimal::new(64, -1)),
                // Past i64, an integer is a decimal too.
                TokenKind::Decimal(Decimal::new(1, 20)),
            ]
        );
        // 40 significant digits do not fit the mantissa: refused, spanned.
        let err = tokenize("x @ 1234567890123456789012345678901234567890.5").unwrap_err();
        assert!(err.message.contains("exact rational"), "{}", err.message);
        assert_eq!(err.span.column, 5);
    }
}
