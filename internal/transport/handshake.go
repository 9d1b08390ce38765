package transport

import "github.com/haocl-project/haocl/internal/protocol"

// Handshake performs the Hello exchange on a freshly dialed client,
// offering protocol.Version when req names no version. There is nothing to
// negotiate: a node speaking another version refuses with CodeUnsupported,
// and the error is returned as is. Both the host runtime and node
// peer-dialing share this path.
func Handshake(client *Client, req protocol.HelloReq) (protocol.HelloResp, error) {
	if req.WireVersion == 0 {
		req.WireVersion = protocol.Version
	}
	var resp protocol.HelloResp
	err := client.Call(&req, &resp)
	return resp, err
}
