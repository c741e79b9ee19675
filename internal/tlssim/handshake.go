package tlssim

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"phiopenssl/internal/cert"
	"phiopenssl/internal/dh"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/rsakit"
)

// Config carries the handshake parameters shared by client and server.
type Config struct {
	// Key is the server's RSA private key (server side only).
	Key *rsakit.PrivateKey
	// ServerPub pins the server public key on the client side; if nil the
	// client trusts the key presented in ServerHello (the reproduction has
	// no PKI).
	ServerPub *rsakit.PublicKey
	// Rand supplies randoms and padding; required on both sides.
	Rand io.Reader
	// PrivateOpts configures the server's RSA private operation (CRT,
	// blinding) — the knobs of experiment E9.
	PrivateOpts rsakit.PrivateOpts
	// Cache, when set on the server, enables session resumption: full
	// handshakes deposit their master secret here and clients presenting
	// a cached session ID skip the RSA key exchange.
	Cache *SessionCache
	// Resume, when set on the client, offers the given session for
	// resumption. The server falls back to a full handshake on a miss.
	Resume *Ticket
	// KeyExchange selects the cipher-suite family (RSA key transport or
	// DHE-RSA). Client and server must agree; the server alerts on a
	// mismatch.
	KeyExchange KeyExchange
	// DHGroup overrides the DHE group (default RFC 3526 MODP2048).
	DHGroup *dh.Group
	// Chain, when set on the server, is presented in ServerHello instead
	// of a bare public key. Its leaf must certify Key's public part.
	Chain cert.Chain
	// Roots, when set on the client, requires the server to present a
	// certificate chain anchoring in one of these roots; the verified
	// leaf key is then used for the key exchange.
	Roots []*cert.Certificate
	// TimeNow supplies the verification clock (defaults to time.Now).
	TimeNow func() int64
	// RequireClientCert makes the server demand a client certificate
	// chain and a CertificateVerify signature (mutual TLS). Requires
	// ClientRoots.
	RequireClientCert bool
	// ClientRoots anchors client-certificate verification on the server.
	ClientRoots []*cert.Certificate
	// ClientKey and ClientChain are the client's credential for mutual
	// TLS (the chain's leaf must certify ClientKey's public part).
	ClientKey   *rsakit.PrivateKey
	ClientChain cert.Chain
}

// now returns the configured or real clock.
func (c *Config) now() int64 {
	if c.TimeNow != nil {
		return c.TimeNow()
	}
	return time.Now().Unix()
}

// Session is an established connection with derived record keys.
type Session struct {
	conn    net.Conn
	master  [32]byte
	ticket  *Ticket
	resumed bool
	in      *recordState
	out     *recordState
}

// Master returns the negotiated master secret (for tests).
func (s *Session) Master() [32]byte { return s.master }

// Resumed reports whether this session was established by the abbreviated
// (resumption) handshake.
func (s *Session) Resumed() bool { return s.resumed }

// Ticket returns the resumption handle for this session, or nil when the
// server did not offer one.
func (s *Session) Ticket() *Ticket { return s.ticket }

// Close closes the underlying connection.
func (s *Session) Close() error { return s.conn.Close() }

// ServerHello flags.
const (
	helloFull    byte = 0
	helloResumed byte = 1
)

// transcript accumulates the handshake messages both sides hash.
type transcript struct{ h []byte }

func (t *transcript) add(payload []byte) {
	sum := sha256.Sum256(append(t.h, payload...))
	t.h = sum[:]
}

// Server runs the server side of one handshake on conn, using eng for all
// RSA arithmetic.
func Server(conn net.Conn, eng engine.Engine, cfg *Config) (*Session, error) {
	if cfg.Key == nil {
		return nil, fmt.Errorf("tlssim: server requires a private key")
	}
	var tr transcript

	hello, err := expectMessage(conn, msgClientHello)
	if err != nil {
		return nil, err
	}
	if len(hello) != 1+randomLen && len(hello) != 1+randomLen+sessionIDLen {
		sendAlert(conn, "bad client hello")
		return nil, fmt.Errorf("tlssim: client hello length %d", len(hello))
	}
	if KeyExchange(hello[0]) != cfg.KeyExchange {
		sendAlert(conn, "key exchange mismatch")
		return nil, fmt.Errorf("tlssim: client requested %s, server serves %s",
			KeyExchange(hello[0]), cfg.KeyExchange)
	}
	tr.add(hello)
	clientRandom := hello[1 : 1+randomLen]

	// Resumption lookup.
	if len(hello) == 1+randomLen+sessionIDLen && cfg.Cache != nil {
		var id [sessionIDLen]byte
		copy(id[:], hello[1+randomLen:])
		if oldMaster, ok := cfg.Cache.Get(id); ok {
			return serverResume(conn, cfg, &tr, clientRandom, id, oldMaster)
		}
	}

	serverRandom := make([]byte, randomLen)
	if _, err := io.ReadFull(cfg.Rand, serverRandom); err != nil {
		return nil, fmt.Errorf("tlssim: server random: %w", err)
	}
	var sessionID [sessionIDLen]byte
	if _, err := io.ReadFull(cfg.Rand, sessionID[:]); err != nil {
		return nil, fmt.Errorf("tlssim: session id: %w", err)
	}
	var credential string
	if len(cfg.Chain) > 0 {
		leaf := cfg.Chain[0]
		if !leaf.Key.N.Equal(cfg.Key.N) || !leaf.Key.E.Equal(cfg.Key.E) {
			sendAlert(conn, "chain does not certify server key")
			return nil, fmt.Errorf("tlssim: chain leaf does not certify the server key")
		}
		credential = cert.MarshalChain(cfg.Chain)
	} else {
		credential = rsakit.MarshalPublic(&cfg.Key.PublicKey)
	}
	ccFlag := byte(0)
	if cfg.RequireClientCert {
		if len(cfg.ClientRoots) == 0 {
			return nil, fmt.Errorf("tlssim: RequireClientCert needs ClientRoots")
		}
		ccFlag = 1
	}
	sh := make([]byte, 0, 2+randomLen+sessionIDLen+len(credential))
	sh = append(sh, helloFull)
	sh = append(sh, serverRandom...)
	sh = append(sh, sessionID[:]...)
	sh = append(sh, ccFlag)
	sh = append(sh, credential...)
	if err := writeMessage(conn, msgServerHello, sh); err != nil {
		return nil, err
	}
	tr.add(sh)

	// Mutual TLS: receive and verify the client's certificate chain
	// before the key exchange.
	var clientLeaf *cert.Certificate
	if ccFlag == 1 {
		cc, err := expectMessage(conn, msgCertificate)
		if err != nil {
			return nil, err
		}
		tr.add(cc)
		chain, err := cert.UnmarshalChain(string(cc))
		if err != nil {
			sendAlert(conn, "bad client certificate")
			return nil, fmt.Errorf("tlssim: client chain: %w", err)
		}
		clientLeaf, err = cert.VerifyChain(eng, chain, cfg.ClientRoots, cfg.now())
		if err != nil {
			sendAlert(conn, "client certificate rejected")
			return nil, fmt.Errorf("tlssim: client chain: %w", err)
		}
	}

	var premaster []byte
	if cfg.KeyExchange == KXDHE {
		premaster, err = serverDHE(conn, eng, cfg, &tr, clientRandom, serverRandom)
		if err != nil {
			return nil, err
		}
	} else {
		encPremaster, err := expectMessage(conn, msgClientKeyExchange)
		if err != nil {
			return nil, err
		}
		tr.add(encPremaster)
		premaster, err = rsakit.DecryptPKCS1v15(eng, cfg.Key, encPremaster, cfg.PrivateOpts)
		if err != nil || len(premaster) != premasterLen {
			sendAlert(conn, "decrypt error")
			return nil, fmt.Errorf("tlssim: premaster decryption failed: %v", err)
		}
	}

	// Mutual TLS: the client proves key possession by signing the
	// transcript up to this point.
	if clientLeaf != nil {
		cv, err := expectMessage(conn, msgCertVerify)
		if err != nil {
			return nil, err
		}
		if err := rsakit.VerifyPKCS1v15SHA256(eng, clientLeaf.Key, tr.h, cv); err != nil {
			sendAlert(conn, "bad certificate verify")
			return nil, fmt.Errorf("tlssim: CertificateVerify: %w", err)
		}
		tr.add(cv)
	}

	master := deriveMaster(premaster, clientRandom, serverRandom)

	// Verify the client Finished, then send ours.
	clientFin, err := expectMessage(conn, msgFinished)
	if err != nil {
		return nil, err
	}
	if !verifyFinished(master, "client finished", tr.h, clientFin) {
		sendAlert(conn, "bad finished")
		return nil, fmt.Errorf("tlssim: client Finished verification failed")
	}
	tr.add(clientFin)
	// Cache the session before our Finished goes out: once the client
	// reads it, it may resume on a new connection at once.
	if cfg.Cache != nil {
		cfg.Cache.Put(sessionID, master)
	}
	serverFin := finishedMAC(master, "server finished", tr.h)
	if err := writeMessage(conn, msgFinished, serverFin); err != nil {
		return nil, err
	}

	sess := newSession(conn, master, false)
	sess.ticket = &Ticket{ID: sessionID, Master: master}
	return sess, nil
}

// serverResume completes the abbreviated handshake: no RSA, fresh keys
// from the cached master and the new randoms, server Finished first (as
// in TLS abbreviated handshakes).
func serverResume(conn net.Conn, cfg *Config, tr *transcript,
	clientRandom []byte, id [sessionIDLen]byte, oldMaster [32]byte) (*Session, error) {
	serverRandom := make([]byte, randomLen)
	if _, err := io.ReadFull(cfg.Rand, serverRandom); err != nil {
		return nil, fmt.Errorf("tlssim: server random: %w", err)
	}
	sh := make([]byte, 0, 1+randomLen+sessionIDLen)
	sh = append(sh, helloResumed)
	sh = append(sh, serverRandom...)
	sh = append(sh, id[:]...)
	if err := writeMessage(conn, msgServerHello, sh); err != nil {
		return nil, err
	}
	tr.add(sh)

	master := deriveResumedMaster(oldMaster, clientRandom, serverRandom)
	serverFin := finishedMAC(master, "server finished", tr.h)
	if err := writeMessage(conn, msgFinished, serverFin); err != nil {
		return nil, err
	}
	tr.add(serverFin)

	clientFin, err := expectMessage(conn, msgFinished)
	if err != nil {
		return nil, err
	}
	if !verifyFinished(master, "client finished", tr.h, clientFin) {
		sendAlert(conn, "bad finished")
		return nil, fmt.Errorf("tlssim: client Finished verification failed (resumed)")
	}

	sess := newSession(conn, master, false)
	sess.resumed = true
	sess.ticket = &Ticket{ID: id, Master: oldMaster}
	return sess, nil
}

// Client runs the client side of one handshake on conn, using eng for the
// RSA public-key encryption of the premaster secret.
func Client(conn net.Conn, eng engine.Engine, cfg *Config) (*Session, error) {
	var tr transcript

	clientRandom := make([]byte, randomLen)
	if _, err := io.ReadFull(cfg.Rand, clientRandom); err != nil {
		return nil, fmt.Errorf("tlssim: client random: %w", err)
	}
	hello := append([]byte{byte(cfg.KeyExchange)}, clientRandom...)
	if cfg.Resume != nil {
		hello = append(hello, cfg.Resume.ID[:]...)
	}
	if err := writeMessage(conn, msgClientHello, hello); err != nil {
		return nil, err
	}
	tr.add(hello)

	sh, err := expectMessage(conn, msgServerHello)
	if err != nil {
		return nil, err
	}
	if len(sh) < 1+randomLen+sessionIDLen {
		return nil, fmt.Errorf("tlssim: short ServerHello")
	}
	tr.add(sh)
	flag := sh[0]
	serverRandom := sh[1 : 1+randomLen]
	var sessionID [sessionIDLen]byte
	copy(sessionID[:], sh[1+randomLen:1+randomLen+sessionIDLen])

	if flag == helloResumed {
		if cfg.Resume == nil || sessionID != cfg.Resume.ID {
			sendAlert(conn, "unexpected resumption")
			return nil, fmt.Errorf("tlssim: server resumed a session we did not offer")
		}
		return clientResume(conn, cfg, &tr, clientRandom, serverRandom, sessionID)
	}

	if len(sh) < 2+randomLen+sessionIDLen {
		return nil, fmt.Errorf("tlssim: short ServerHello")
	}
	certRequested := sh[1+randomLen+sessionIDLen] == 1
	if certRequested {
		if cfg.ClientKey == nil || len(cfg.ClientChain) == 0 {
			sendAlert(conn, "no client certificate")
			return nil, fmt.Errorf("tlssim: server requires a client certificate")
		}
		cc := []byte(cert.MarshalChain(cfg.ClientChain))
		if err := writeMessage(conn, msgCertificate, cc); err != nil {
			return nil, err
		}
		tr.add(cc)
	}

	pub, err := parseCredential(eng, cfg, string(sh[2+randomLen+sessionIDLen:]))
	if err != nil {
		sendAlert(conn, "bad credential")
		return nil, err
	}
	if cfg.ServerPub != nil {
		if !pub.N.Equal(cfg.ServerPub.N) || !pub.E.Equal(cfg.ServerPub.E) {
			sendAlert(conn, "key mismatch")
			return nil, fmt.Errorf("tlssim: server key does not match pinned key")
		}
	}

	var premaster []byte
	if cfg.KeyExchange == KXDHE {
		premaster, err = clientDHE(conn, eng, cfg, &tr, clientRandom, serverRandom, pub)
		if err != nil {
			return nil, err
		}
	} else {
		premaster = make([]byte, premasterLen)
		if _, err := io.ReadFull(cfg.Rand, premaster); err != nil {
			return nil, fmt.Errorf("tlssim: premaster: %w", err)
		}
		encPremaster, err := rsakit.EncryptPKCS1v15(eng, cfg.Rand, pub, premaster)
		if err != nil {
			return nil, fmt.Errorf("tlssim: encrypting premaster: %w", err)
		}
		if err := writeMessage(conn, msgClientKeyExchange, encPremaster); err != nil {
			return nil, err
		}
		tr.add(encPremaster)
	}

	if certRequested {
		cv, err := rsakit.SignPKCS1v15SHA256(eng, cfg.ClientKey, tr.h, cfg.PrivateOpts)
		if err != nil {
			return nil, fmt.Errorf("tlssim: signing CertificateVerify: %w", err)
		}
		if err := writeMessage(conn, msgCertVerify, cv); err != nil {
			return nil, err
		}
		tr.add(cv)
	}

	master := deriveMaster(premaster, clientRandom, serverRandom)

	clientFin := finishedMAC(master, "client finished", tr.h)
	if err := writeMessage(conn, msgFinished, clientFin); err != nil {
		return nil, err
	}
	tr.add(clientFin)

	serverFin, err := expectMessage(conn, msgFinished)
	if err != nil {
		return nil, err
	}
	if !verifyFinished(master, "server finished", tr.h, serverFin) {
		return nil, fmt.Errorf("tlssim: server Finished verification failed")
	}

	sess := newSession(conn, master, true)
	sess.ticket = &Ticket{ID: sessionID, Master: master}
	return sess, nil
}

// clientResume completes the abbreviated handshake from the client side.
func clientResume(conn net.Conn, cfg *Config, tr *transcript,
	clientRandom, serverRandom []byte, id [sessionIDLen]byte) (*Session, error) {
	master := deriveResumedMaster(cfg.Resume.Master, clientRandom, serverRandom)

	serverFin, err := expectMessage(conn, msgFinished)
	if err != nil {
		return nil, err
	}
	if !verifyFinished(master, "server finished", tr.h, serverFin) {
		sendAlert(conn, "bad finished")
		return nil, fmt.Errorf("tlssim: server Finished verification failed (resumed)")
	}
	tr.add(serverFin)

	clientFin := finishedMAC(master, "client finished", tr.h)
	if err := writeMessage(conn, msgFinished, clientFin); err != nil {
		return nil, err
	}

	sess := newSession(conn, master, true)
	sess.resumed = true
	sess.ticket = &Ticket{ID: id, Master: cfg.Resume.Master}
	return sess, nil
}

// deriveMaster computes the master secret from the premaster and the two
// hello randoms (a single-step HMAC PRF).
func deriveMaster(premaster, clientRandom, serverRandom []byte) [32]byte {
	mac := hmac.New(sha256.New, premaster)
	mac.Write([]byte("master secret"))
	mac.Write(clientRandom)
	mac.Write(serverRandom)
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// deriveResumedMaster refreshes a cached master secret with the new
// connection's randoms, so resumed sessions never reuse record keys.
func deriveResumedMaster(oldMaster [32]byte, clientRandom, serverRandom []byte) [32]byte {
	mac := hmac.New(sha256.New, oldMaster[:])
	mac.Write([]byte("resumed master"))
	mac.Write(clientRandom)
	mac.Write(serverRandom)
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// finishedMAC computes the Finished verifier for one side.
func finishedMAC(master [32]byte, label string, transcript []byte) []byte {
	mac := hmac.New(sha256.New, master[:])
	mac.Write([]byte(label))
	mac.Write(transcript)
	return mac.Sum(nil)
}

// verifyFinished checks a Finished verifier in constant time.
func verifyFinished(master [32]byte, label string, transcript, got []byte) bool {
	want := finishedMAC(master, label, transcript)
	return subtle.ConstantTimeCompare(want, got) == 1
}

// parseCredential extracts and authenticates the server's RSA key from the
// ServerHello payload: a certificate chain (verified against cfg.Roots
// when set) or a bare public key (rejected if the client demands roots).
func parseCredential(eng engine.Engine, cfg *Config, payload string) (*rsakit.PublicKey, error) {
	if strings.HasPrefix(payload, "-----BEGIN PHIOPENSSL CERTIFICATE-----") {
		chain, err := cert.UnmarshalChain(payload)
		if err != nil {
			return nil, fmt.Errorf("tlssim: server chain: %w", err)
		}
		if len(cfg.Roots) > 0 {
			leaf, err := cert.VerifyChain(eng, chain, cfg.Roots, cfg.now())
			if err != nil {
				return nil, fmt.Errorf("tlssim: %w", err)
			}
			return leaf.Key, nil
		}
		// No trust store configured: trust-on-first-use of the leaf.
		return chain[0].Key, nil
	}
	if len(cfg.Roots) > 0 {
		return nil, fmt.Errorf("tlssim: server presented a bare key but the client requires a certificate chain")
	}
	pub, err := rsakit.UnmarshalPublic(payload)
	if err != nil {
		return nil, fmt.Errorf("tlssim: server key: %w", err)
	}
	return pub, nil
}
