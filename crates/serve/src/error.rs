//! Error type shared by the serving layers.

use std::fmt;

/// Errors raised by the registry, server, client and load tooling.
#[derive(Debug)]
pub enum ServeError {
    /// No artifact is registered under the requested name.
    UnknownModel {
        /// The name the request asked for.
        name: String,
    },
    /// An artifact directory contained no loadable artifacts.
    EmptyRegistry {
        /// The directory that was scanned.
        dir: String,
    },
    /// An artifact file's stem is not valid UTF-8, so it cannot become a
    /// model name (names travel in URL paths and JSON responses).
    InvalidArtifactName {
        /// The offending path, lossily rendered.
        path: String,
    },
    /// The request could not be parsed or fails validation.
    BadRequest {
        /// Explanation sent back to the client.
        message: String,
    },
    /// An HTTP message violated the subset of HTTP/1.1 this crate speaks.
    Protocol {
        /// Explanation of the violation.
        message: String,
    },
    /// An HTTP request used a framing feature this crate deliberately does
    /// not implement (a `Transfer-Encoding` header); servers answer `501`
    /// and close the connection.
    NotImplemented {
        /// Explanation of the refused feature.
        message: String,
    },
    /// A response declared a body over [`crate::http::MAX_BODY_BYTES`].
    /// The body is left unread, so the connection cannot be reused; the
    /// server itself answered, so this is no sign of a broken peer.
    ResponseTooLarge {
        /// The `Content-Length` the response declared.
        declared: usize,
    },
    /// The server answered with a non-success status.
    Status {
        /// HTTP status code received.
        status: u16,
        /// Response body (usually a JSON error object).
        body: String,
    },
    /// Propagated model/artifact error.
    Rbm(sls_rbm_core::RbmError),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// JSON (de)serialisation failed.
    Serde(serde_json::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel { name } => write!(f, "no model named `{name}` is loaded"),
            ServeError::EmptyRegistry { dir } => {
                write!(f, "no .json artifacts found under `{dir}`")
            }
            ServeError::InvalidArtifactName { path } => {
                write!(
                    f,
                    "artifact file `{path}` has a non-UTF-8 stem and cannot name a model"
                )
            }
            ServeError::BadRequest { message } => write!(f, "bad request: {message}"),
            ServeError::Protocol { message } => write!(f, "HTTP protocol error: {message}"),
            ServeError::NotImplemented { message } => write!(f, "not implemented: {message}"),
            ServeError::ResponseTooLarge { declared } => write!(
                f,
                "response body of {declared} bytes exceeds the {}-byte limit",
                crate::http::MAX_BODY_BYTES
            ),
            ServeError::Status { status, body } => {
                write!(f, "server answered {status}: {body}")
            }
            ServeError::Rbm(e) => write!(f, "model error: {e}"),
            ServeError::Io(e) => write!(f, "I/O error: {e}"),
            ServeError::Serde(e) => write!(f, "serialisation error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Rbm(e) => Some(e),
            ServeError::Io(e) => Some(e),
            ServeError::Serde(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sls_rbm_core::RbmError> for ServeError {
    fn from(e: sls_rbm_core::RbmError) -> Self {
        ServeError::Rbm(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<serde_json::Error> for ServeError {
    fn from(e: serde_json::Error) -> Self {
        ServeError::Serde(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ServeError::UnknownModel { name: "m".into() }
            .to_string()
            .contains("`m`"));
        assert!(ServeError::EmptyRegistry { dir: "d".into() }
            .to_string()
            .contains("`d`"));
        assert!(ServeError::InvalidArtifactName { path: "p".into() }
            .to_string()
            .contains("non-UTF-8"));
        assert!(ServeError::BadRequest {
            message: "rows must be non-empty".into()
        }
        .to_string()
        .contains("rows"));
        assert!(ServeError::Protocol {
            message: "missing request line".into()
        }
        .to_string()
        .contains("request line"));
        assert!(ServeError::NotImplemented {
            message: "Transfer-Encoding".into()
        }
        .to_string()
        .contains("Transfer-Encoding"));
        assert!(ServeError::ResponseTooLarge { declared: 99 }
            .to_string()
            .contains("99 bytes"));
        assert!(ServeError::Status {
            status: 404,
            body: "{}".into()
        }
        .to_string()
        .contains("404"));
    }

    #[test]
    fn conversions_preserve_sources() {
        use std::error::Error;
        let e: ServeError = std::io::Error::other("x").into();
        assert!(e.source().is_some());
        let e: ServeError = sls_rbm_core::RbmError::EmptyData.into();
        assert!(e.source().is_some());
        assert!(ServeError::UnknownModel { name: "m".into() }
            .source()
            .is_none());
    }
}
